(* The parallel benchmark's instance and its chunk-scheduling rows,
   shared between the writer (bench/parallel.exe) and the regression
   gate (bench/check.exe).

   One row per job count: how Exec.auto_chunk splits the per-object
   fan-out of the instance — chunk size, chunk count, tasks per chunk.
   These are deterministic in (jobs, objects), so a diff against the
   committed BENCH_parallel.json means the scheduling arithmetic changed.
   Wall times and speedups depend on the host and are printed to stdout
   only; bit-identity across job counts is asserted by the writer. *)

module Builders = Hbn_tree.Builders
module Tree = Hbn_tree.Tree
module Prng = Hbn_prng.Prng
module Generators = Hbn_workload.Generators
module Exec = Hbn_exec.Exec
module Json = Hbn_obs.Json

let schema = "hbn.bench.parallel/v3"
let seed = 20260806
let job_counts = [ 1; 2; 4 ]
let arity = 4
let height = 4
let objects = 384

(* A fresh instance per call, so every job count pays the same view-cache
   warm-up; the generators are deterministic in the seed. *)
let instance ~arity ~height ~objects () =
  let tree = Builders.balanced ~arity ~height ~profile:(Builders.Uniform 2) in
  let w =
    Generators.uniform ~prng:(Prng.create (seed + 1)) tree ~objects ~max_rate:8
  in
  (tree, w)

(* The JSON keys of a row, named here only; the writer and
   bench/check.exe both go through this function. *)
let cases () =
  let tree, _ = instance ~arity ~height ~objects () in
  List.map
    (fun jobs ->
      let chunk = Exec.auto_chunk ~jobs objects in
      let chunks = (objects + chunk - 1) / chunk in
      Json.Obj
        [
          ("topology", Json.Str (Printf.sprintf "balanced-a%dh%d" arity height));
          ("leaves", Json.Int (Tree.num_leaves tree));
          ("objects", Json.Int objects);
          ("seed", Json.Int seed);
          ("jobs", Json.Int jobs);
          ("chunk", Json.Int chunk);
          ("chunks", Json.Int chunks);
          ( "tasks_per_chunk",
            Json.Float (float_of_int objects /. float_of_int chunks) );
        ])
    job_counts
