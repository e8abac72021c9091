(* Regression gate over the committed baselines.

   Run with:  dune exec bench/check.exe [-- FILE.json ...]
   With no arguments it checks every BENCH_*.json listed below. Each
   file's "schema" picks the case matrix that wrote it; the matrix is
   re-run and the file, minus its "meta" header, is diffed structurally
   against {"schema", "cases"} of the fresh run. Values compare exactly
   through the writers' rendering (floats at %.3f). Every divergence — a
   changed value, a missing or extra key, a different case count — is
   reported by its JSON path, and the gate exits 1: a code change
   altered what the code computes, not just how fast. This file names no
   bench field; a field added to a *_cases module is checked as is. *)

module Json = Hbn_obs.Json

let matrices =
  [
    (Pipeline_cases.schema, "BENCH_pipeline.json", Pipeline_cases.cases);
    (Fault_cases.schema, "BENCH_faults.json", Fault_cases.cases);
    (Parallel_cases.schema, "BENCH_parallel.json", Parallel_cases.cases);
    (Async_cases.schema, "BENCH_async.json", Async_cases.cases);
    (Monitor_cases.schema, "BENCH_monitor.json", Monitor_cases.cases);
    (Serve_cases.schema, "BENCH_serve.json", Serve_cases.cases);
  ]

let failures = ref 0

let fail file fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "bench/check: %s: %s\n" file msg)
    fmt

(* Object members pair up by key (member order is not a claim), list
   elements by position; any other pair must render identically. *)
let rec diff file path baseline fresh =
  match (baseline, fresh) with
  | Json.Obj b, Json.Obj f ->
    let at k = if path = "" then k else path ^ "." ^ k in
    List.iter
      (fun (k, bv) ->
        match List.assoc_opt k f with
        | Some fv -> diff file (at k) bv fv
        | None ->
          fail file "%s missing from fresh (baseline: %s)" (at k)
            (Meta.render bv))
      b;
    List.iter
      (fun (k, fv) ->
        if not (List.mem_assoc k b) then
          fail file "%s missing from baseline (fresh: %s)" (at k)
            (Meta.render fv))
      f
  | Json.List b, Json.List f ->
    let nb = List.length b and nf = List.length f in
    if nb <> nf then
      fail file "%s: %d entries (baseline) <> %d (fresh)" path nb nf;
    List.iteri
      (fun i bv ->
        Option.iter
          (diff file (Printf.sprintf "%s[%d]" path i) bv)
          (List.nth_opt f i))
      b
  | _ ->
    let b = Meta.render baseline and f = Meta.render fresh in
    if b <> f then fail file "%s %s (baseline) <> %s (fresh)" path b f

let check file =
  match
    Json.parse_result (In_channel.with_open_text file In_channel.input_all)
  with
  | exception Sys_error m -> fail file "cannot read: %s" m
  | Error m -> fail file "cannot parse: %s" m
  | Ok doc -> (
    let schema = Option.bind (Json.member "schema" doc) Json.to_string in
    match List.find_opt (fun (s, _, _) -> Some s = schema) matrices with
    | None ->
      fail file "unknown schema %s"
        (Option.fold ~none:"(none)" ~some:Meta.quote schema)
    | Some (schema, _, cases) ->
      let before = !failures in
      let fresh = cases () in
      let baseline =
        match doc with
        | Json.Obj kvs -> Json.Obj (List.remove_assoc "meta" kvs)
        | _ -> doc
      in
      diff file "" baseline
        (Json.Obj [ ("schema", Json.Str schema); ("cases", Json.List fresh) ]);
      if !failures = before then
        Printf.printf "bench/check: %s: %d cases match %s\n" file
          (List.length fresh) schema)

let () =
  let files =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map (fun (_, file, _) -> file) matrices
    | files -> files
  in
  List.iter check files;
  if !failures > 0 then begin
    Printf.eprintf
      "bench/check: %d divergence(s); regenerate a baseline only if the \
       change was meant to alter its results\n"
      !failures;
    exit 1
  end
