(* The domain-parallel execution layer: the runner itself, the
   bit-identical-at-any-job-count contract of the per-object pipeline,
   and thread safety of the observability registries it emits into. *)

module Exec = Hbn_exec.Exec
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Strategy = Hbn_core.Strategy
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink

exception Boom

(* --- the runner ---------------------------------------------------------- *)

let test_sequential_map () =
  let out = Exec.map Exec.sequential 5 (fun i -> 10 * i) in
  Alcotest.(check (array int)) "results in order" [| 0; 10; 20; 30; 40 |] out;
  Alcotest.(check int) "jobs" 1 (Exec.jobs Exec.sequential)

let test_pool_map_order () =
  Exec.with_runner ~jobs:4 @@ fun exec ->
  Alcotest.(check int) "jobs" 4 (Exec.jobs exec);
  let out = Exec.map exec 257 (fun i -> i * i) in
  Alcotest.(check (array int))
    "results land in index order"
    (Array.init 257 (fun i -> i * i))
    out

let test_empty_map () =
  Exec.with_runner ~jobs:2 @@ fun exec ->
  Alcotest.(check (array int)) "n = 0" [||] (Exec.map exec 0 (fun i -> i))

let test_pool_reuse () =
  (* One runner, many maps: generations must not leak into each other. *)
  Exec.with_runner ~jobs:3 @@ fun exec ->
  for round = 1 to 20 do
    let out = Exec.map exec 64 (fun i -> (round * 1000) + i) in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.init 64 (fun i -> (round * 1000) + i))
      out
  done

let test_exception_propagates () =
  Exec.with_runner ~jobs:4 @@ fun exec ->
  Alcotest.check_raises "task exception re-raised" Boom (fun () ->
      ignore (Exec.map exec 100 (fun i -> if i = 57 then raise Boom else i)));
  (* The pool must survive a failed generation. *)
  let out = Exec.map exec 8 (fun i -> i + 1) in
  Alcotest.(check (array int))
    "usable after failure"
    (Array.init 8 (fun i -> i + 1))
    out

let test_iter_covers_every_index () =
  Exec.with_runner ~jobs:4 @@ fun exec ->
  let hits = Array.init 100 (fun _ -> Atomic.make 0) in
  Exec.iter exec 100 (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i a ->
      Alcotest.(check int) (Printf.sprintf "index %d hit once" i) 1
        (Atomic.get a))
    hits

let test_shutdown_idempotent () =
  let exec = Exec.create ~jobs:3 in
  Exec.shutdown exec;
  Exec.shutdown exec;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Exec.map: runner already shut down") (fun () ->
      ignore (Exec.map exec 4 (fun i -> i)))

(* --- lazy spawning -------------------------------------------------------- *)

let test_lazy_spawn_counts () =
  let exec = Exec.create ~jobs:4 in
  Alcotest.(check int) "no workers before first map" 0
    (Exec.spawned_workers exec);
  ignore (Exec.map exec 2 (fun i -> i));
  Alcotest.(check int) "2 tasks need at most 1 worker" 1
    (Exec.spawned_workers exec);
  ignore (Exec.map exec 1 (fun i -> i));
  Alcotest.(check int) "spawning never shrinks" 1 (Exec.spawned_workers exec);
  ignore (Exec.map exec 100 (fun i -> i));
  Alcotest.(check int) "wide map reaches the target" 3
    (Exec.spawned_workers exec);
  Exec.shutdown exec

let test_sequential_never_spawns () =
  Alcotest.(check int) "sequential" 0 (Exec.spawned_workers Exec.sequential);
  let exec = Exec.create ~jobs:1 in
  ignore (Exec.map exec 50 (fun i -> i));
  Alcotest.(check int) "jobs:1 is inline" 0 (Exec.spawned_workers exec)

(* --- chunked scheduling --------------------------------------------------- *)

let test_auto_chunk_formula () =
  List.iter
    (fun (jobs, n) ->
      Alcotest.(check int)
        (Printf.sprintf "auto_chunk ~jobs:%d %d" jobs n)
        (max 1 (n / (8 * jobs)))
        (Exec.auto_chunk ~jobs n))
    [ (1, 0); (1, 7); (1, 384); (2, 384); (4, 384); (4, 31); (3, 1000) ]

(* The chunked contract: any chunk size, any job count, same array. *)
let test_map_chunked_matches_map () =
  let n = 257 in
  let f i = (i * i) - (3 * i) in
  let expect = Array.init n f in
  List.iter
    (fun jobs ->
      Exec.with_runner ~jobs @@ fun exec ->
      List.iter
        (fun chunk ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
            expect
            (Exec.map_chunked ~chunk exec n f))
        [ 1; 2; 3; 5; 64; 1000 ];
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d auto chunk" jobs)
        expect
        (Exec.map_chunked exec n f))
    [ 1; 2; 4 ]

let test_map_chunked_rejects_bad_chunk () =
  Alcotest.check_raises "chunk = 0"
    (Invalid_argument "Exec: chunk must be at least 1") (fun () ->
      ignore (Exec.map_chunked ~chunk:0 Exec.sequential 4 (fun i -> i)))

let test_iter_chunked_covers_every_index () =
  Exec.with_runner ~jobs:4 @@ fun exec ->
  let hits = Array.init 100 (fun _ -> Atomic.make 0) in
  Exec.iter_chunked ~chunk:7 exec 100 (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i a ->
      Alcotest.(check int) (Printf.sprintf "index %d hit once" i) 1
        (Atomic.get a))
    hits

(* --- determinism of the pipeline ----------------------------------------- *)

let run_at ~jobs w =
  Exec.with_runner ~jobs @@ fun exec ->
  let res = Strategy.run ~exec w in
  let c = Placement.evaluate ~exec w res.Strategy.placement in
  (res, c)

(* The tentpole contract: every field of [Strategy.result] (placements of
   all three steps, copies with their renumbered ids, deletion/split/
   mapping stats) and the full evaluation (value, per-edge loads, per-bus
   loads, bottleneck) are bit-identical at any job count. Structural
   equality over the records covers all of it. *)
let prop_bit_identical_across_jobs seed =
  let _, w = Helpers.instance seed in
  let reference = run_at ~jobs:1 w in
  List.for_all (fun jobs -> run_at ~jobs w = reference) [ 2; 4 ]

let prop_congestion_matches_across_jobs seed =
  let _, w = Helpers.instance seed in
  let reference = Strategy.congestion w in
  List.for_all
    (fun jobs ->
      Exec.with_runner ~jobs (fun exec -> Strategy.congestion ~exec w)
      = reference)
    [ 2; 4 ]

(* --- concurrent emission into the obs layer ------------------------------ *)

let spawn_all n f = List.init n (fun d -> Domain.spawn (fun () -> f d))

let test_counters_concurrent_count () =
  let sink, _ = Sink.memory () in
  let domains = 4 and per_domain = 5_000 in
  Trace.with_sink sink (fun () ->
      spawn_all domains (fun _ ->
          for _ = 1 to per_domain do
            Trace.count "shared";
            Trace.count ~by:2 "double"
          done)
      |> List.iter Domain.join;
      Alcotest.(check (list (pair string int)))
        "no lost increments"
        [ ("double", 2 * domains * per_domain); ("shared", domains * per_domain) ]
        (Trace.counters ()))

let test_memory_sink_concurrent_emit () =
  let sink, read = Sink.memory () in
  let domains = 4 and per_domain = 2_000 in
  spawn_all domains (fun d ->
      for i = 1 to per_domain do
        sink.Sink.emit
          {
            Sink.name = Printf.sprintf "d%d" d;
            id = i;
            parent = 0;
            payload = Sink.Point;
            attrs = [];
          }
      done)
  |> List.iter Domain.join;
  Alcotest.(check int) "no lost events" (domains * per_domain)
    (List.length (read ()))

let test_timings_sink_concurrent_emit () =
  let sink, read = Sink.timings () in
  let domains = 3 and per_domain = 2_000 in
  spawn_all domains (fun _ ->
      for _ = 1 to per_domain do
        sink.Sink.emit
          {
            Sink.name = "phase";
            id = 1;
            parent = 0;
            payload = Sink.Span_end { duration_ns = 2L };
            attrs = [];
          }
      done)
  |> List.iter Domain.join;
  match read () with
  | [ ("phase", calls, total_ns) ] ->
    Alcotest.(check int) "no lost spans" (domains * per_domain) calls;
    Alcotest.(check int64)
      "durations sum" (Int64.of_int (2 * domains * per_domain)) total_ns
  | _ -> Alcotest.fail "expected exactly the phase row"

let suite =
  [
    Helpers.tc "sequential map" test_sequential_map;
    Helpers.tc "pool map keeps index order" test_pool_map_order;
    Helpers.tc "map of zero tasks" test_empty_map;
    Helpers.tc "pool survives reuse across generations" test_pool_reuse;
    Helpers.tc "task exceptions propagate" test_exception_propagates;
    Helpers.tc "iter covers every index once" test_iter_covers_every_index;
    Helpers.tc "shutdown is idempotent and final" test_shutdown_idempotent;
    Helpers.tc "workers spawn lazily with demand" test_lazy_spawn_counts;
    Helpers.tc "sequential runners never spawn" test_sequential_never_spawns;
    Helpers.tc "auto_chunk matches its formula" test_auto_chunk_formula;
    Helpers.tc "map_chunked identical to map at any jobs/chunk"
      test_map_chunked_matches_map;
    Helpers.tc "map_chunked rejects chunk < 1" test_map_chunked_rejects_bad_chunk;
    Helpers.tc "iter_chunked covers every index once"
      test_iter_chunked_covers_every_index;
    Helpers.qt ~count:40 "strategy + evaluate bit-identical at jobs 1/2/4"
      Helpers.seed_arb prop_bit_identical_across_jobs;
    Helpers.qt ~count:40 "Strategy.congestion identical at jobs 1/2/4"
      Helpers.seed_arb prop_congestion_matches_across_jobs;
    Helpers.tc "counters survive concurrent Trace.count"
      test_counters_concurrent_count;
    Helpers.tc "memory sink survives concurrent emit"
      test_memory_sink_concurrent_emit;
    Helpers.tc "timings sink survives concurrent emit"
      test_timings_sink_concurrent_emit;
  ]
