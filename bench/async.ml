(* Asynchronous-simulation benchmark: writes BENCH_async.json.

   Run with:  dune exec bench/async.exe [-- --smoke]
   Replays the Async_cases matrix — the same workload and placement per
   topology, simulated once per per-level link model — and records the
   deterministic schedule profile per case. bench/check.exe diffs those
   cases against the committed file.

   The matrix is self-validating (Async_cases.validate_group): traffic
   fields must not vary with the link, Link.sync must reproduce the
   synchronous engine bit for bit, and completion must actually move
   across the bandwidth-asymmetric rows.

   --smoke simulates one topology synchronously and on a uniformly
   starved link (bandwidth 1 under bus caps of 2, so every hop is
   slower on both axes) and checks the controlled-experiment shape by
   hand; no JSON. *)

module AC = Async_cases
module Prng = Hbn_prng.Prng
module Generators = Hbn_workload.Generators
module Strategy = Hbn_core.Strategy

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  if smoke then begin
    let prng = Prng.create AC.seed in
    let topology, tree = List.hd (AC.topologies ()) in
    let w = Generators.uniform ~prng tree ~objects:AC.objects ~max_rate:8 in
    let placement = (Strategy.run w).Strategy.placement in
    let sync = AC.run_case ~w ~placement ~topology ~link:None in
    let slow = AC.run_case ~w ~placement ~topology ~link:(Some "1:1") in
    if
      sync.AC.packets <> slow.AC.packets
      || sync.AC.transmissions <> slow.AC.transmissions
      || sync.AC.congestion <> slow.AC.congestion
    then begin
      Printf.eprintf
        "bench/async --smoke: traffic varied with the link model on %s\n"
        topology;
      exit 1
    end;
    if slow.AC.completion <= sync.AC.completion then begin
      Printf.eprintf
        "bench/async --smoke: halved bandwidth did not raise completion \
         (%g vs %g) on %s\n"
        slow.AC.completion sync.AC.completion topology;
      exit 1
    end;
    Printf.printf
      "bench/async --smoke: %s completion %g (sync) -> %g (1:1) with \
       traffic pinned (%d packets, %d transmissions)\n"
      topology sync.AC.completion slow.AC.completion sync.AC.packets
      sync.AC.transmissions
  end
  else begin
    let cases = AC.all () in
    Meta.write ~path:"BENCH_async.json" ~schema:AC.schema
      (List.map AC.to_json cases);
    Printf.printf "bench/async: wrote BENCH_async.json (%d cases)\n"
      (List.length cases);
    List.iter
      (fun c ->
        Printf.printf "  %-16s %-10s %5d ticks  completion %8.3f  %5d pkts \
                       %6d hops  congestion %.3f\n"
          c.AC.topology c.AC.link c.AC.makespan c.AC.completion c.AC.packets
          c.AC.transmissions c.AC.congestion)
      cases
  end
