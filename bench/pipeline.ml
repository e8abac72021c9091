(* Deterministic baseline of the strategy pipeline.

   Run with:  dune exec bench/pipeline.exe [-- OUTPUT.json]
   Writes BENCH_pipeline.json (default, in the current directory): one
   case per topology x workload with instance shape, congestion,
   makespan, the pipeline counters and the phase names with their call
   counts. The case matrix lives in Pipeline_cases, shared with
   bench/check.exe, which diffs a fresh run against the committed file.
   The strategy's wall time per case is printed to stdout only. *)

module PC = Pipeline_cases

let () =
  let out_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_pipeline.json"
  in
  let cases = PC.all () in
  Meta.write ~path:out_path ~schema:PC.schema (List.map PC.to_json cases);
  Printf.printf "wrote %d cases to %s\n" (List.length cases) out_path;
  List.iter
    (fun c ->
      let total =
        List.fold_left
          (fun acc (name, _, ns) ->
            if name = "strategy.run" then Int64.to_float ns /. 1e6 else acc)
          0. c.PC.phases
      in
      Printf.printf "  %-18s %-8s strategy %.2f ms, congestion %.1f\n"
        c.PC.topology c.PC.workload total c.PC.congestion)
    cases
