(* Adaptive-serving benchmark: writes BENCH_serve.json.

   Run with:  dune exec bench/serve.exe [-- --smoke]
   Replays the Serve_cases matrix — the four Drift generators through
   the epoch-based serving tier — and records congestion-over-time,
   bytes-migrated, and epochs-reoptimized per case. bench/check.exe
   diffs those cases against the committed file, so the adaptation
   frontier (what re-optimizes, what it costs, what it recovers) is a
   pinned contract.

   --smoke replays the matrix and asserts its contract (steady never
   re-optimizes, hotspot migration recovers >= 30% of the stale-oracle
   congestion gap, no epoch exceeds the migration byte budget); no JSON
   is written. *)

module SC = Serve_cases

let contract cases =
  let find w = List.find (fun c -> c.SC.workload = w) cases in
  let errs = ref [] in
  let expect cond msg = if not cond then errs := msg :: !errs in
  let steady = find "steady" in
  expect
    (steady.SC.reoptimized = 0 && steady.SC.bytes_migrated = 0)
    (Printf.sprintf
       "steady re-optimized %d epoch(s), migrated %d bytes; must do neither"
       steady.SC.reoptimized steady.SC.bytes_migrated);
  expect (steady.SC.alerts = 0)
    (Printf.sprintf "steady fired %d alert(s); must stay silent"
       steady.SC.alerts);
  let hot = find "hotspot_migration" in
  expect
    (hot.SC.recovered >= 0.30)
    (Printf.sprintf
       "hotspot migration recovered %.3f of the stale-oracle gap; need >= 0.30"
       hot.SC.recovered);
  expect (hot.SC.reoptimized > 0)
    "hotspot migration never re-optimized; the drift must trigger the loop";
  List.iter
    (fun c ->
      expect c.SC.budget_ok
        (Printf.sprintf "%s migrated %d bytes in one epoch; budget is %d"
           c.SC.workload c.SC.max_epoch_bytes SC.config.SC.Serve.budget_bytes))
    cases;
  List.rev !errs

let () =
  let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv in
  let cases = SC.all () in
  (match contract cases with
  | [] -> ()
  | errs ->
    List.iter (Printf.eprintf "bench/serve: %s\n") errs;
    exit 1);
  if smoke then
    let hot =
      List.find (fun c -> c.SC.workload = "hotspot_migration") cases
    in
    Printf.printf
      "bench/serve --smoke: %d workloads, steady never re-optimizes, hotspot \
       recovers %.0f%% of the gap within budget\n"
      (List.length cases)
      (100.0 *. hot.SC.recovered)
  else begin
    Meta.write ~path:"BENCH_serve.json" ~schema:SC.schema
      (List.map SC.to_json cases);
    Printf.printf "bench/serve: wrote BENCH_serve.json (%d cases)\n"
      (List.length cases);
    List.iter
      (fun c ->
        Printf.printf
          "  %-18s %2d reopts %6d bytes  serve %.3f stale %.3f oracle %.3f  \
           recovered %s  %s\n"
          c.SC.workload c.SC.reoptimized c.SC.bytes_migrated c.SC.mean_serve
          c.SC.mean_stale c.SC.mean_oracle
          (if c.SC.recovered < 0.0 then "n/a"
           else Printf.sprintf "%.0f%%" (100.0 *. c.SC.recovered))
          c.SC.verdict)
      cases
  end
