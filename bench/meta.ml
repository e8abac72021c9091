(* Shared writer for the BENCH_*.json baselines.

   Every baseline file has one shape,

     {"schema":..., "meta":{...}, "cases":[...]}

   where "meta" records the environment the file was written in (core
   count, compiler, git state) so tooling can tell an algorithmic change
   from a host change, and "cases" holds one object per case of the
   matrix, deterministic fields only. bench/check.exe ignores "meta" and
   diffs "cases" against a fresh run. Timings are not written here; the
   timing benches print theirs to stdout, and perfbench/ is the repo's
   timing source. *)

module Json = Hbn_obs.Json

(* Best-effort only: spawning can fail (no /bin/sh, fork limits), git can
   be absent or print nothing (not a repo, empty repo), and reaping can
   raise (ECHILD under some process managers). Every such path must
   degrade to "unknown" — a bench run on a weird host should still write
   a valid baseline, just an unattributed one. *)
let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
    let line = String.trim (try input_line ic with _ -> "") in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ | (exception _) -> "unknown")

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Json.escape_string buf s;
  Buffer.contents buf

(* Compact JSON with every float through %.3f: the one rendering both
   the writers and the checker use, so baseline and fresh values compare
   as strings, exactly. *)
let rec render = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%.3f" f
  | Json.Str s -> quote s
  | Json.List l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | Json.Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> quote k ^ ":" ^ render v) kvs)
    ^ "}"

(* Writes one baseline file, one case per line. *)
let write ~path ~schema cases =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"schema\":%s,\n\
        \ \"meta\":{\"detected_cores\":%d,\"ocaml\":%s,\"git\":%s},\n\
        \ \"cases\":[\n\
         %s\n\
         ]}\n"
        (quote schema)
        (Domain.recommended_domain_count ())
        (quote Sys.ocaml_version)
        (quote (git_describe ()))
        (String.concat ",\n" (List.map (fun c -> "    " ^ render c) cases)))
