(* Fault-injection benchmark: writes BENCH_faults.json.

   Run with:  dune exec bench/faults.exe [-- --smoke]
   Replays the Fault_cases matrix — the hardened distributed nibble
   under seeded drop/crash/cut plans — and records the deterministic
   recovery profile per case. bench/check.exe diffs those cases against
   the committed file.

   --smoke runs one drop-plan case and checks it recovers; no JSON. *)

module FC = Fault_cases

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  if smoke then begin
    let prng = Hbn_prng.Prng.create FC.seed in
    let case =
      FC.run_case ~prng
        ~topology:(List.hd (FC.topologies ()))
        ~plan:"drop=0.2,until=60"
    in
    if case.FC.outcome <> "recovered" then begin
      Printf.eprintf "bench/faults --smoke: expected recovery, got %s\n"
        case.FC.outcome;
      exit 1
    end;
    Printf.printf
      "bench/faults --smoke: recovered on %s under %s (%d rounds, %d \
       retransmissions)\n"
      case.FC.topology case.FC.plan case.FC.rounds case.FC.retransmissions
  end
  else begin
    let cases = FC.all () in
    Meta.write ~path:"BENCH_faults.json" ~schema:FC.schema
      (List.map FC.to_json cases);
    Printf.printf "bench/faults: wrote BENCH_faults.json (%d cases)\n"
      (List.length cases);
    List.iter
      (fun c ->
        Printf.printf
          "  %-16s %-40s %-22s %5d rounds %6d msgs %5d rexmit\n" c.FC.topology
          c.FC.plan c.FC.outcome c.FC.rounds c.FC.messages c.FC.retransmissions)
      cases
  end
