(* Scaling of the domain-parallel per-object pipeline.

   Run with:  dune exec bench/parallel.exe [-- OUTPUT.json]
          or  dune exec bench/parallel.exe -- --smoke
   The full run executes the whole strategy (Steps 1-3 plus the final
   evaluation) on one large random instance at --jobs 1, 2 and 4 and
   prints wall times and speedups, together with the core count the
   runtime detects — scaling numbers are only meaningful when the host
   actually has that many cores. Every run must produce a bit-identical
   [Strategy.result] and evaluation; the bench fails (exit 1) on any
   divergence. It then writes BENCH_parallel.json: the chunk-scheduling
   rows of Parallel_cases, no timings. [--smoke] checks equality on a
   small instance for `make check`: no timing claims, no JSON written. *)

module Strategy = Hbn_core.Strategy
module Placement = Hbn_placement.Placement
module Exec = Hbn_exec.Exec
module PC = Parallel_cases

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* End-to-end pipeline: strategy + congestion evaluation, both on the
   runner under test. *)
let run_once ~jobs mk =
  Exec.with_runner ~jobs (fun exec ->
      let _, w = mk () in
      let out, secs =
        time (fun () ->
            let res = Strategy.run ~exec w in
            let c = Placement.evaluate ~exec w res.Strategy.placement in
            (res, c))
      in
      (secs, out))

(* Best of [repeats] to shave scheduler noise; equality is checked on
   every repeat, not just the timed best. *)
let measure ~repeats ~jobs mk =
  let best = ref infinity and result = ref None in
  for _ = 1 to repeats do
    let secs, res = run_once ~jobs mk in
    (match !result with
    | None -> result := Some res
    | Some prev ->
      if prev <> res then begin
        Printf.eprintf
          "bench/parallel: jobs=%d produced different results across repeats\n"
          jobs;
        exit 1
      end);
    if secs < !best then best := secs
  done;
  (!best, Option.get !result)

(* [reference] and [res] are (Strategy.result, Placement.congestion)
   pairs — all plain data, so structural compare covers the placement,
   every stage, the stats and the evaluation at once. *)
let check_identical ~reference ~jobs res =
  if res <> reference then begin
    Printf.eprintf
      "bench/parallel: jobs=%d diverges from jobs=1 (placement, stats or \
       evaluation differ)\n"
      jobs;
    exit 1
  end

let smoke () =
  let mk = PC.instance ~arity:3 ~height:2 ~objects:12 in
  let results =
    List.map (fun jobs -> snd (run_once ~jobs mk)) PC.job_counts
  in
  (match results with
  | reference :: rest ->
    List.iteri
      (fun i res ->
        check_identical ~reference ~jobs:(List.nth PC.job_counts (i + 1)) res)
      rest
  | [] -> ());
  print_endline
    "bench/parallel --smoke: jobs 1/2/4 bit-identical (strategy + evaluate)"

let full out_path =
  let repeats = 3 in
  let mk = PC.instance ~arity:PC.arity ~height:PC.height ~objects:PC.objects in
  let cores = Domain.recommended_domain_count () in
  let measured =
    List.map
      (fun jobs ->
        let secs, res = measure ~repeats ~jobs mk in
        (jobs, secs, res))
      PC.job_counts
  in
  let _, base_s, reference =
    match measured with m :: _ -> m | [] -> assert false
  in
  List.iter
    (fun (jobs, _, res) ->
      if jobs <> 1 then check_identical ~reference ~jobs res)
    measured;
  Meta.write ~path:out_path ~schema:PC.schema (PC.cases ());
  Printf.printf "wrote %s (detected cores: %d)\n" out_path cores;
  List.iter
    (fun (jobs, secs, _) ->
      Printf.printf "  jobs %d  %8.3f s  speedup %.2fx\n" jobs secs
        (base_s /. secs))
    measured;
  if cores < List.fold_left max 1 PC.job_counts then
    Printf.printf
      "  note: only %d core(s) available; speedups above 1x cannot appear \
       on this host\n"
      cores

let () =
  match Array.to_list Sys.argv with
  | _ :: "--smoke" :: _ -> smoke ()
  | _ :: path :: _ -> full path
  | _ -> full "BENCH_parallel.json"
