(* The fault-injection benchmark's case matrix, shared between the
   writer (bench/faults.exe) and the regression gate (bench/check.exe).

   Every field below is deterministic: the fault schedule is a pure
   function of the plan seed, the hardened protocol is synchronous, and
   the recovered placement is checked against the sequential strategy.
   A diff against the committed BENCH_faults.json therefore means a code
   change altered recovery behaviour — retransmit policy, termination
   detection, fault accounting — not just speed. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Dist = Hbn_dist.Dist
module Dist_nibble = Hbn_dist.Dist_nibble
module Faults = Hbn_dist.Faults
module Runtime = Hbn_dist.Runtime
module Telemetry = Hbn_obs.Telemetry
module Json = Hbn_obs.Json

let schema = "hbn.bench.faults/v2"
let seed = 20260806
let objects = 12

(* Bounded so the baked-in permanent-crash case degrades quickly. *)
let max_rounds = 2_000

type case = {
  topology : string;
  plan : string;  (* canonical spec, as parsed *)
  outcome : string;  (* "recovered" or "degraded:<reason>" *)
  rounds : int;
  messages : int;
  retransmissions : int;
  duplicates : int;
  pure_acks : int;
  fault_events : int;
  dropped : int;
  undecided : int;
  congestion : float;  (* recovered placement; -1 when degraded *)
  (* Telemetry series fields — as deterministic as the run itself, so a
     diff means the collector (folding, edge cut, hooks) changed. *)
  tel_points : int;  (* retained points after bounded-memory folding *)
  tel_sent : int;  (* Σ sent over the series = total frames attempted *)
  tel_bytes : int;  (* Σ bytes over the series *)
  tel_peak_sent : int;  (* busiest point's sent count *)
}

let topologies () =
  [
    ("balanced-a3h3", Builders.balanced ~arity:3 ~height:3 ~profile:(Builders.Uniform 2));
    ("star-16", Builders.star ~leaves:16 ~profile:(Builders.Uniform 4));
    ("caterpillar-8x2", Builders.caterpillar ~spine:8 ~leaves_per_bus:2 ~profile:(Builders.Uniform 2));
  ]

let plans =
  [
    "drop=0";  (* empty plan: the hardened protocol with zero faults *)
    "drop=0.05,until=100";
    "drop=0.2,until=60";
    "drop=0.1,until=50,crash=2:10-30,cut=0:8-20";
    "crash=1:1-inf";  (* unrecoverable: must degrade, not hang or raise *)
  ]

let run_case ~prng ~topology:(tname, tree) ~plan:spec =
  let w = Generators.uniform ~prng tree ~objects ~max_rate:8 in
  let plan =
    match Faults.of_spec ~seed spec with
    | Ok p -> p
    | Error e -> invalid_arg (Printf.sprintf "fault_cases: bad plan %S: %s" spec e)
  in
  let telemetry = Telemetry.create ~num_edges:(Tree.num_edges tree) () in
  let report = Dist.run_with_faults ~max_rounds ~faults:plan ~telemetry w in
  let outcome, nibble, log, congestion =
    match report with
    | Dist.Recovered { placement; nibble; log; _ } ->
      ("recovered", nibble, log, Placement.congestion w placement)
    | Dist.Degraded { reason; nibble; log; _ } ->
      ( (match reason with
        | `Round_limit -> "degraded:round_limit"
        | `Undecided -> "degraded:undecided"
        | `Diverged -> "degraded:diverged"),
        nibble,
        log,
        -1.0 )
  in
  let dropped =
    List.length
      (List.filter
         (fun e -> match e.Faults.kind with Faults.Dropped _ -> true | _ -> false)
         log)
  in
  {
    topology = tname;
    plan = Faults.to_spec plan;
    outcome;
    rounds = nibble.Dist_nibble.runtime.Runtime.rounds;
    messages = nibble.Dist_nibble.runtime.Runtime.messages;
    retransmissions = nibble.Dist_nibble.retransmissions;
    duplicates = nibble.Dist_nibble.duplicates;
    pure_acks = nibble.Dist_nibble.pure_acks;
    fault_events = List.length log;
    dropped;
    undecided = nibble.Dist_nibble.undecided;
    congestion;
    tel_points = List.length (Telemetry.points telemetry);
    tel_sent =
      List.fold_left
        (fun acc p -> acc + p.Telemetry.sent)
        0 (Telemetry.points telemetry);
    tel_bytes =
      List.fold_left
        (fun acc p -> acc + p.Telemetry.bytes)
        0 (Telemetry.points telemetry);
    tel_peak_sent =
      List.fold_left
        (fun acc p -> max acc p.Telemetry.sent)
        0 (Telemetry.points telemetry);
  }

let all () =
  let prng = Prng.create seed in
  List.concat_map
    (fun topology -> List.map (fun plan -> run_case ~prng ~topology ~plan) plans)
    (topologies ())

(* The JSON keys of a case, named here only; the writer and
   bench/check.exe both go through this function. *)
let to_json c =
  Json.Obj
    [
      ("topology", Json.Str c.topology);
      ("plan", Json.Str c.plan);
      ("outcome", Json.Str c.outcome);
      ("rounds", Json.Int c.rounds);
      ("messages", Json.Int c.messages);
      ("retransmissions", Json.Int c.retransmissions);
      ("duplicates", Json.Int c.duplicates);
      ("pure_acks", Json.Int c.pure_acks);
      ("fault_events", Json.Int c.fault_events);
      ("dropped", Json.Int c.dropped);
      ("undecided", Json.Int c.undecided);
      ("congestion", Json.Float c.congestion);
      ("tel_points", Json.Int c.tel_points);
      ("tel_sent", Json.Int c.tel_sent);
      ("tel_bytes", Json.Int c.tel_bytes);
      ("tel_peak_sent", Json.Int c.tel_peak_sent);
    ]

let cases () = List.map to_json (all ())
