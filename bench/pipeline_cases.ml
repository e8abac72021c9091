(* The pipeline benchmark's case matrix, shared between the writer
   (bench/pipeline.exe) and the regression gate (bench/check.exe).

   The PRNG is threaded through the whole matrix in order, so the cases
   are only reproducible as one sequence from [seed] — both consumers
   must run [all ()] whole, never individual cases. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Sim = Hbn_sim.Sim
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Json = Hbn_obs.Json

let schema = "hbn.bench.pipeline/v2"
let seed = 20260806
let objects = 32

type case = {
  topology : string;
  workload : string;
  phases : (string * int * int64) list;  (* name, calls, total ns *)
  counters : (string * int) list;
  nodes : int;
  leaves : int;
  objects : int;
  requests : int;
  congestion : float;
  makespan : int;
}

let topologies prng =
  [
    ("balanced-a3h3", Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2));
    ("caterpillar-12x3", Builders.caterpillar ~spine:12 ~leaves_per_bus:3 ~profile:(Builders.Uniform 2));
    ("random-b12l24", Builders.random ~prng ~buses:12 ~leaves:24 ~profile:(Builders.Uniform 2));
    ("star-24", Builders.star ~leaves:24 ~profile:(Builders.Uniform 4));
  ]

let workload_of name ~prng tree ~objects =
  match name with
  | "uniform" -> Generators.uniform ~prng tree ~objects ~max_rate:8
  | "zipf" ->
    Generators.zipf_popularity ~prng tree ~objects ~requests_per_leaf:24
      ~exponent:1.1 ~write_fraction:0.3
  | "hotspot" ->
    Generators.hotspot ~prng tree ~objects ~writers_per_object:2 ~write_rate:8
      ~read_rate:6
  | _ -> invalid_arg "workload_of"

let run_case ~prng ~topology:(tname, tree) ~workload:wname ~objects =
  let w = workload_of wname ~prng tree ~objects in
  let sink, read_timings = Sink.timings () in
  let congestion, makespan, counters =
    Trace.with_sink sink (fun () ->
        let res = Strategy.run w in
        let out = Sim.run ~scale:4 w res.Strategy.placement in
        ( Placement.congestion w res.Strategy.placement,
          out.Sim.makespan,
          Trace.counters () ))
  in
  {
    topology = tname;
    workload = wname;
    phases = read_timings ();
    counters;
    nodes = Tree.n tree;
    leaves = Tree.num_leaves tree;
    objects;
    requests = Workload.total_requests w;
    congestion;
    makespan;
  }

let all () =
  let prng = Prng.create seed in
  List.concat_map
    (fun topology ->
      List.map
        (fun workload -> run_case ~prng ~topology ~workload ~objects)
        [ "uniform"; "zipf"; "hotspot" ])
    (topologies prng)

(* The JSON keys of a case are named here and nowhere else: the writer
   and bench/check.exe both go through this function. Phase durations
   are host noise and stay out; phase names and call counts are
   behaviour and go in. *)
let to_json c =
  Json.Obj
    [
      ("topology", Json.Str c.topology);
      ("workload", Json.Str c.workload);
      ("nodes", Json.Int c.nodes);
      ("leaves", Json.Int c.leaves);
      ("objects", Json.Int c.objects);
      ("requests", Json.Int c.requests);
      ("congestion", Json.Float c.congestion);
      ("makespan", Json.Int c.makespan);
      ( "phases",
        Json.Obj
          (List.map
             (fun (name, calls, _ns) ->
               (name, Json.Obj [ ("calls", Json.Int calls) ]))
             c.phases) );
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) c.counters) );
    ]

let cases () = List.map to_json (all ())
