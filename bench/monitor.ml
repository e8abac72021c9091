(* Drift-detection benchmark: writes BENCH_monitor.json.

   Run with:  dune exec bench/monitor.exe [-- --smoke]
   Replays the Monitor_cases matrix — synthetic steady/step/ramp/
   flash-crowd/fade workloads through a folding Telemetry collector into
   a default Monitor — and records the detector hit/miss profile per
   case. bench/check.exe diffs those cases against the committed file,
   so the detection frontier (which shapes fire, which stay silent, and
   when) is a pinned contract, not a vibe.

   --smoke replays the matrix and asserts its contract (steady silent,
   every drift shape fires, fade degrades); no JSON. *)

module MC = Monitor_cases

let contract cases =
  let find w = List.find (fun c -> c.MC.workload = w) cases in
  let errs = ref [] in
  let expect cond msg = if not cond then errs := msg :: !errs in
  let steady = find "steady" in
  expect (steady.MC.alerts = 0)
    (Printf.sprintf "steady fired %d alert(s); must stay silent"
       steady.MC.alerts);
  List.iter
    (fun w ->
      let c = find w in
      expect (c.MC.alerts > 0) (w ^ " fired no alert; must detect the shift"))
    [ "step"; "ramp"; "flash_crowd"; "fade" ];
  let fade = find "fade" in
  expect (fade.MC.verdict = "degrading")
    (Printf.sprintf "fade verdict %S; must be degrading" fade.MC.verdict);
  List.rev !errs

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let cases = MC.all () in
  (match contract cases with
  | [] -> ()
  | errs ->
    List.iter (Printf.eprintf "bench/monitor: %s\n") errs;
    exit 1);
  if smoke then
    Printf.printf
      "bench/monitor --smoke: %d workloads, steady silent, drift shapes \
       fire, fade degrades\n"
      (List.length cases)
  else begin
    Meta.write ~path:"BENCH_monitor.json" ~schema:MC.schema
      (List.map MC.to_json cases);
    Printf.printf "bench/monitor: wrote BENCH_monitor.json (%d cases)\n"
      (List.length cases);
    List.iter
      (fun c ->
        Printf.printf
          "  %-12s %3d pts %3d alerts (%d cusum, %d ph) first@%-4d %s\n"
          c.MC.workload c.MC.points c.MC.alerts c.MC.cusum_alerts
          c.MC.ph_alerts c.MC.first_alert_round c.MC.verdict)
      cases
  end
