(* Aggregates all suites. Run with `dune runtest`; individual suites can be
   selected with e.g. `dune exec test/test_main.exe -- test strategy`. *)

let () =
  Alcotest.run "hbn"
    [
      ("heap", Test_heap.suite);
      ("exec", Test_exec.suite);
      ("stats", Test_stats.suite);
      ("table", Test_table.suite);
      ("obs", Test_obs.suite);
      ("monitor", Test_monitor.suite);
      ("prng", Test_prng.suite);
      ("tree", Test_tree.suite);
      ("flat", Test_flat.suite);
      ("builders", Test_builders.suite);
      ("workload", Test_workload.suite);
      ("partition", Test_partition.suite);
      ("placement", Test_placement.suite);
      ("nearest", Test_nearest.suite);
      ("loads", Test_loads.suite);
      ("attribution", Test_attribution.suite);
      ("nibble", Test_nibble.suite);
      ("deletion", Test_deletion.suite);
      ("mapping", Test_mapping.suite);
      ("strategy", Test_strategy.suite);
      ("exact", Test_exact.suite);
      ("baselines", Test_baselines.suite);
      ("event", Test_event.suite);
      ("sim", Test_sim.suite);
      ("sim_golden", Test_sim_golden.suite);
      ("dist", Test_dist.suite);
      ("dynamic", Test_dynamic.suite);
      ("serve", Test_serve.suite);
      ("serve_cost", Test_serve_cost.suite);
      ("capacitated", Test_capacitated.suite);
      ("ablation", Test_ablation.suite);
      ("io", Test_io.suite);
      ("runtime", Test_runtime.suite);
      ("faults", Test_faults.suite);
      ("certificates", Test_certificates.suite);
      ("report", Test_report.suite);
      ("cli", Test_cli.suite);
      ("examples", Test_examples.suite);
    ]
