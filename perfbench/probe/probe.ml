(* The in-process half of the benchmark.

     probe.exe WORKLOAD SEED TRACE_SECONDS
     probe.exe setup WORKLOAD SEED REPS

   WORKLOAD is one of place-zipf, place-hotspot, simulate-zipf and
   serve-migration. The first form makes the library calls that the
   matching `hbn_cli` command makes, in the same order:

   1. once untraced, for the command's results, the allocation of each
      call and the peak major heap;
   2. for TRACE_SECONDS (at least once when positive), traced repeats of
      the same calls, each public call wrapped in a "bench.<call>" span,
      plus timed round trips through the Loads engine.

   The second form only times REPS set-ups (topology, workload, flat
   structures), each from a collected heap.

   It prints one JSON object on stdout: the substrings the command's own
   stdout must contain, exact counts, and the raw samples; run.py turns
   them into metrics. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads
module Strategy = Hbn_core.Strategy
module Mapping = Hbn_core.Mapping
module Certificates = Hbn_core.Certificates
module Lower_bounds = Hbn_exact.Lower_bounds
module Sim = Hbn_sim.Sim
module Dist = Hbn_dist.Dist
module Exec = Hbn_exec.Exec
module Serve = Hbn_serve.Serve
module Drift = Hbn_serve.Drift
module Table = Hbn_util.Table
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Report = Hbn_obs.Report
module Monitor = Hbn_obs.Monitor
module Attribution = Hbn_obs.Attribution

type workload = Place_zipf | Place_hotspot | Simulate_zipf | Serve_migration

let workload_of_name = function
  | "place-zipf" -> Place_zipf
  | "place-hotspot" -> Place_hotspot
  | "simulate-zipf" -> Simulate_zipf
  | "serve-migration" -> Serve_migration
  | s -> failwith ("unknown workload " ^ s)

(* Every workload runs on a balanced arity-4 tree of bandwidth 2. *)
let height = function
  | Place_zipf | Place_hotspot -> 6
  | Simulate_zipf -> 4
  | Serve_migration -> 5

let build_tree wl =
  Builders.balanced ~arity:4 ~height:(height wl) ~profile:(Builders.Uniform 2)

(* The generator parameters of `hbn_cli --workload zipf|hotspot`. *)
let generate wl ~prng tree =
  match wl with
  | Place_zipf | Simulate_zipf ->
    Generators.zipf_popularity ~prng tree ~objects:64 ~requests_per_leaf:24
      ~exponent:1.1 ~write_fraction:0.3
  | Place_hotspot ->
    Generators.hotspot ~prng tree ~objects:16 ~writers_per_object:2
      ~write_rate:8 ~read_rate:6
  | Serve_migration -> invalid_arg "generate: serve draws per-epoch tables"

(* `hbn_cli serve` defaults: 10 objects at base rate 8. *)
let drift ~seed tree =
  Drift.create Drift.Hotspot_migration ~seed ~tree ~objects:10 ~rate:8

let serve_config ~seed = { Serve.default with Serve.seed }

(* -- benchmark spans and allocation --------------------------------------- *)

(* Native code folds the minor heap's fill into the counters only at a
   minor collection, so one is forced first to make the count exact. *)
let allocated () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Words allocated inside each call name, summed over its calls; counted
   on the untraced pass only. *)
let allocs : (string, float) Hashtbl.t = Hashtbl.create 16

let call name f =
  if Trace.enabled () then begin
    let sp = Trace.span ("bench." ^ name) in
    let r = f () in
    Trace.finish sp;
    r
  end
  else begin
    let w0 = allocated () in
    let r = f () in
    let w = allocated () -. w0 in
    let prev = Option.value ~default:0. (Hashtbl.find_opt allocs name) in
    Hashtbl.replace allocs name (prev +. w);
    r
  end

let force_flat tree w =
  ignore (call "tree.flat" (fun () -> Flat.of_tree tree));
  ignore (call "workload.flat" (fun () -> Workload.flat w))

(* -- the command bodies ---------------------------------------------------- *)

type outcome =
  | Placed of {
      w : Workload.t;
      res : Strategy.result;
      c : Placement.congestion;
      lb : float;
      cert : (unit, string) result;
    }
  | Simulated of {
      w : Workload.t;
      res : Strategy.result;
      sim : Sim.outcome;
      sim_lb : float;
      identical : bool;
      stats : Dist.stats;
    }
  | Served of { d : Drift.t; out : Serve.outcome }

let op wl ~seed exec =
  let prng = Prng.create seed in
  let tree = call "tree.build" (fun () -> build_tree wl) in
  match wl with
  | Place_zipf | Place_hotspot ->
    let w = call "workload.generate" (fun () -> generate wl ~prng tree) in
    force_flat tree w;
    let res = call "strategy.run" (fun () -> Strategy.run ~exec w) in
    let c =
      call "placement.evaluate" (fun () ->
          Placement.evaluate ~exec w res.Strategy.placement)
    in
    (* `place` evaluates the bound for the printed value and twice more
       for the printed ratio. *)
    let combined () = call "lower_bounds.combined" (fun () -> Lower_bounds.combined w) in
    let lb = combined () in
    if combined () > 0. then ignore (combined ());
    let cert = call "certificates.check_all" (fun () -> Certificates.check_all w res) in
    Placed { w; res; c; lb; cert }
  | Simulate_zipf ->
    let w = call "workload.generate" (fun () -> generate wl ~prng tree) in
    force_flat tree w;
    let res = call "strategy.run" (fun () -> Strategy.run ~exec w) in
    let sim = call "sim.run" (fun () -> Sim.run ~scale:4 w res.Strategy.placement) in
    let sim_lb =
      call "sim.lower_bound" (fun () -> Sim.lower_bound w res.Strategy.placement sim)
    in
    let placement, stats = call "dist.strategy_rounds" (fun () -> Dist.strategy_rounds w) in
    let identical = placement = res.Strategy.placement in
    Simulated { w; res; sim; sim_lb; identical; stats }
  | Serve_migration ->
    let d = call "workload.generate" (fun () -> drift ~seed tree) in
    ignore (call "tree.flat" (fun () -> Flat.of_tree tree));
    let out =
      call "serve.run" (fun () ->
          Serve.run ~exec (serve_config ~seed) (Serve.Generator d))
    in
    Served { d; out }

(* What the untraced pass can check and count, outside the timed calls. *)
type summary = {
  problems : string list;  (* in-process checks that failed *)
  congestion : float;
  bound : float;  (* the certified lower bound lb_ratio divides by *)
  expect : string list;  (* substrings the command's stdout must contain *)
  counts : (string * int) list;
}

let sum_over p f = Array.fold_left (fun a op -> a + f op) 0 p

let strategy_counts (res : Strategy.result) =
  let p = res.Strategy.placement in
  let up, down =
    match res.Strategy.mapping with
    | None -> (0, 0)
    | Some s -> (s.Mapping.moves_up, s.Mapping.moves_down)
  in
  [
    ("strategy.copies", sum_over p (fun op -> List.length op.Placement.copies));
    ("strategy.splits", res.Strategy.splits);
    ("strategy.deletions", res.Strategy.deletions);
    ("strategy.tau_max", res.Strategy.tau_max);
    ("mapping.moves_up", up);
    ("mapping.moves_down", down);
    ("placement.assigns", sum_over p (fun op -> List.length op.Placement.assigns));
  ]

let site = function
  | `Edge e -> Printf.sprintf "edge %d" e
  | `Bus b -> Printf.sprintf "bus %d" b

(* The serve command's epoch table, rendered as the command renders it. *)
let serve_table (out : Serve.outcome) =
  let tbl =
    Table.create
      [ "epoch"; "requests"; "serve"; "stale"; "oracle"; "bytes";
        "repl/migr/drop"; "alerts" ]
  in
  List.iter
    (fun s ->
      Table.add_row tbl
        [
          string_of_int s.Serve.s_epoch;
          string_of_int s.Serve.s_requests;
          Table.fmt_float s.Serve.s_congestion;
          Table.fmt_float s.Serve.s_stale;
          (if Float.is_nan s.Serve.s_oracle then "-"
           else Table.fmt_float s.Serve.s_oracle);
          string_of_int s.Serve.s_bytes_migrated;
          (if s.Serve.s_reoptimized then
             Printf.sprintf "%d/%d/%d" s.Serve.s_replications
               s.Serve.s_migrations s.Serve.s_contractions
           else "-");
          string_of_int s.Serve.s_alerts;
        ])
    out.Serve.epochs;
  Table.render tbl

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let summarize ~seed = function
  | Placed { w; res; c; lb; cert } ->
    {
      problems =
        (match cert with Ok () -> [] | Error m -> [ "certificates: " ^ m ]);
      congestion = c.Placement.value;
      bound = lb;
      expect =
        [
          Printf.sprintf "workload: %d objects, %d requests"
            (Workload.num_objects w) (Workload.total_requests w);
          Printf.sprintf "congestion: %.3f  (bottleneck %s)" c.Placement.value
            (site c.Placement.bottleneck);
          Printf.sprintf "lower bound: %.3f  (certified ratio <= %.3f;" lb
            (c.Placement.value /. lb);
          Printf.sprintf "deletions: %d, clone splits: %d, tau_max: %d"
            res.Strategy.deletions res.Strategy.splits res.Strategy.tau_max;
          "certificates: all hold";
        ];
      counts =
        ("workload.requests", Workload.total_requests w) :: strategy_counts res;
    }
  | Simulated { w; res; sim; sim_lb; identical; stats } ->
    {
      problems =
        (if identical then []
         else [ "distributed placement differs from the strategy's" ]);
      congestion = Placement.congestion w res.Strategy.placement;
      bound = Lower_bounds.combined w;
      expect =
        [
          Printf.sprintf "packets: %d, edge transmissions: %d" sim.Sim.packets
            sim.Sim.transmissions;
          Printf.sprintf "makespan: %d rounds (lower bound %.1f)" sim.Sim.makespan
            sim_lb;
          "distributed placement: identical to centralized strategy";
          Printf.sprintf
            "distributed computation of the placement: %d rounds, %d messages, \
             max node work %d"
            stats.Dist.rounds stats.Dist.messages stats.Dist.max_node_work;
        ];
      counts =
        (("workload.requests", Workload.total_requests w) :: strategy_counts res)
        @ [
            ("sim.packets", sim.Sim.packets);
            ("sim.transmissions", sim.Sim.transmissions);
            ("sim.max_dilation", sim.Sim.max_dilation);
            ("sim.makespan_rounds", sim.Sim.makespan);
            ("dist.rounds", stats.Dist.rounds);
            ("dist.messages", stats.Dist.messages);
          ];
    }
  | Served { d; out } ->
    let cfg = serve_config ~seed in
    let tables = Serve.tables d ~epochs:cfg.Serve.epochs in
    let moves =
      List.fold_left
        (fun a s ->
          a + s.Serve.s_replications + s.Serve.s_migrations
          + s.Serve.s_contractions)
        0 out.Serve.epochs
    in
    {
      problems = [];
      congestion =
        mean (List.map (fun s -> s.Serve.s_congestion) out.Serve.epochs);
      bound = mean (Array.to_list (Array.map Lower_bounds.combined tables));
      expect =
        [
          serve_table out;
          Printf.sprintf "served %d requests over %d epochs (%d slots each)"
            out.Serve.total_requests cfg.Serve.epochs cfg.Serve.slots_per_epoch;
          Printf.sprintf
            "re-optimized %d epoch(s), migrated %d bytes (budget %d/epoch, \
             hysteresis %g)"
            out.Serve.reoptimized_epochs out.Serve.total_bytes_migrated
            cfg.Serve.budget_bytes cfg.Serve.hysteresis;
          Printf.sprintf "health (serve): %s (%d alert"
            (Monitor.verdict_name out.Serve.verdict)
            (List.length out.Serve.alerts);
        ];
      counts =
        [
          ( "workload.requests",
            Array.fold_left (fun a w -> a + Workload.total_requests w) 0 tables );
          ("serve.requests", out.Serve.total_requests);
          ("serve.reoptimized_epochs", out.Serve.reoptimized_epochs);
          ("serve.alerts", List.length out.Serve.alerts);
          ("serve.moves", moves);
          ("serve.bytes_migrated", out.Serve.total_bytes_migrated);
        ];
    }

(* -- set-up ------------------------------------------------------------------ *)

let setup wl ~seed =
  let prng = Prng.create seed in
  let tree = build_tree wl in
  let w =
    match wl with
    | Serve_migration -> Drift.workload (drift ~seed tree) ~epoch:0
    | Place_zipf | Place_hotspot | Simulate_zipf -> generate wl ~prng tree
  in
  ignore (Flat.of_tree tree);
  ignore (Workload.flat w)

let since t0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, since t0)

(* -- traced pass ------------------------------------------------------------- *)

(* Layers whose self time the traced pass reports. A layer's self time is
   the Report self time of the program's span of that name plus that of
   the benchmark span "bench.<name>" around the public call. *)
let layers =
  [
    "tree.build"; "tree.flat"; "workload.generate"; "workload.flat";
    "strategy.run"; "strategy.nibble"; "strategy.deletion"; "strategy.mapping";
    "placement.evaluate"; "lower_bounds.combined"; "certificates.check_all";
    "sim.run"; "sim.lower_bound"; "dist.strategy_rounds"; "serve.run";
  ]

type traced = {
  op_ns : int64;
  self_frac : (string * float) list;
  uncovered_frac : float;  (* op time inside no program span *)
  lb_calls : int;
  queue_depth_max : float;
}

(* Keeps span events and the simulator's queue-depth gauge; drops the
   attribution snapshots, which would not fit in memory on serve. *)
let span_sink () =
  let events = ref [] and depth = ref 0. in
  let emit (ev : Sink.event) =
    match ev.Sink.payload with
    | Sink.Span_start | Sink.Span_end _ -> events := ev :: !events
    | Sink.Gauge { value } when ev.Sink.name = "sim.queue_depth" ->
      depth := Float.max !depth value
    | _ -> ()
  in
  ({ Sink.emit; flush = (fun () -> ()) }, fun () -> (List.rev !events, !depth))

let traced_rep wl ~seed exec =
  let sink, read = span_sink () in
  Trace.with_sink sink (fun () ->
      let sp = Trace.span "bench.op" in
      ignore (op wl ~seed exec);
      Trace.finish sp);
  let events, queue_depth_max = read () in
  let phases = Report.phases (Report.of_events events) in
  let find name = List.find_opt (fun p -> p.Report.name = name) phases in
  let self name =
    Option.fold ~none:0L ~some:(fun p -> p.Report.self_ns) (find name)
  in
  let op_ns = Option.fold ~none:0L ~some:(fun p -> p.Report.total_ns) (find "bench.op") in
  let frac ns = Int64.to_float ns /. Int64.to_float op_ns in
  let uncovered =
    List.fold_left
      (fun a p ->
        if String.starts_with ~prefix:"bench." p.Report.name then
          Int64.add a p.Report.self_ns
        else a)
      0L phases
  in
  {
    op_ns;
    self_frac =
      List.map
        (fun l -> (l, frac (Int64.add (self l) (self ("bench." ^ l)))))
        layers;
    uncovered_frac = frac uncovered;
    lb_calls =
      Option.fold ~none:0 ~some:(fun p -> p.Report.calls)
        (find "bench.lower_bounds.combined");
    queue_depth_max;
  }

(* -- Loads engine round trips ---------------------------------------------- *)

type loads_sample = {
  of_copies_s : float;  (* median per engine build *)
  attach_s : float;  (* median per attribution attach *)
  proposal_ns : float;  (* median over tables of the mean round trip *)
}

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Builds an engine on every table with the final copy sets, attaches
   attribution, and times [trips] move/congestion/rollback round trips
   per table. Each trip moves one copy of an object to the first leaf
   past a hashed offset that holds no copy of it. *)
let loads_rep tables copies ~trips =
  let builds = ref [] and attaches = ref [] and proposals = ref [] in
  Array.iter
    (fun w ->
      let eng, build_s = timed (fun () -> Loads.of_copies w (Array.copy copies)) in
      builds := build_s :: !builds;
      attaches := snd (timed (fun () -> Attribution.attach eng)) :: !attaches;
      let leaves = Tree.leaves_array (Workload.tree w) in
      let nl = Array.length leaves in
      let objs =
        List.filter (fun o -> copies.(o) <> []) (List.init (Array.length copies) Fun.id)
        |> Array.of_list
      in
      if Array.length objs > 0 then begin
        let (), s =
          timed (fun () ->
              for i = 0 to trips - 1 do
                let obj = objs.(i mod Array.length objs) in
                let src = List.hd (Loads.copies eng ~obj) in
                let k = ref ((i * 7919) mod nl) in
                while Loads.has_copy eng ~obj leaves.(!k) do
                  k := (!k + 1) mod nl
                done;
                let cp = Loads.checkpoint eng in
                Loads.move_copy eng ~obj ~src ~dst:leaves.(!k);
                ignore (Loads.congestion eng);
                Loads.rollback eng cp
              done)
        in
        proposals := (s *. 1e9 /. float_of_int trips) :: !proposals
      end)
    tables;
  {
    of_copies_s = median !builds;
    attach_s = median !attaches;
    proposal_ns = median !proposals;
  }

(* The tables and final copy sets the Loads round trips run on: every
   epoch table for serve, the command's one table otherwise. *)
let loads_inputs ~seed = function
  | Placed { w; res; _ } | Simulated { w; res; _ } ->
    ( [| w |],
      Array.map (fun op -> op.Placement.copies) res.Strategy.placement,
      64 )
  | Served { d; out } ->
    let epochs = (serve_config ~seed).Serve.epochs in
    (Serve.tables d ~epochs, out.Serve.final_copies, 16)

(* -- JSON output ------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let json_obj kvs =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) kvs)
  ^ "}"

let floats f l = json_list (fun x -> json_float (f x)) l

let time_setups wl ~seed ~reps =
  let setups =
    List.init reps (fun _ ->
        Gc.full_major ();
        snd (timed (fun () -> setup wl ~seed)))
  in
  print_endline (json_obj [ ("setup_s", floats Fun.id setups) ])

let () =
  let wl, seed, trace_seconds =
    match Sys.argv with
    | [| _; "setup"; w; s; r |] ->
      time_setups (workload_of_name w) ~seed:(int_of_string s)
        ~reps:(int_of_string r);
      exit 0
    | [| _; w; s; t |] -> (workload_of_name w, int_of_string s, float_of_string t)
    | _ ->
      prerr_endline
        "usage: probe.exe WORKLOAD SEED TRACE_SECONDS | probe.exe setup \
         WORKLOAD SEED REPS";
      exit 2
  in
  Exec.with_runner ~jobs:1 @@ fun exec ->
  let outcome = op wl ~seed exec in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let alloc_mwords =
    List.filter_map
      (fun name ->
        Option.map (fun w -> (name, w /. 1e6)) (Hashtbl.find_opt allocs name))
      [ "strategy.run"; "certificates.check_all"; "sim.run"; "serve.run" ]
  in
  let s = summarize ~seed outcome in
  let reps = ref [] and loads = ref [] in
  if trace_seconds > 0. then begin
    let tables, copies, trips = loads_inputs ~seed outcome in
    let t0 = Monotonic_clock.now () in
    while !reps = [] || since t0 < trace_seconds do
      reps := traced_rep wl ~seed exec :: !reps;
      loads := loads_rep tables copies ~trips :: !loads
    done
  end;
  let reps = List.rev !reps and loads = List.rev !loads in
  print_endline
    (json_obj
       [
         ("problems", json_list json_string s.problems);
         ("ocaml", json_string Sys.ocaml_version);
         ( "recommended_domain_count",
           string_of_int (Domain.recommended_domain_count ()) );
         ( "top_heap_mb",
           json_float
             (float_of_int (top_heap_words * (Sys.word_size / 8))
             /. 1048576.) );
         ("congestion", json_float s.congestion);
         ("bound", json_float s.bound);
         ("expect", json_list json_string s.expect);
         ( "counts",
           json_obj (List.map (fun (k, v) -> (k, string_of_int v)) s.counts) );
         ( "alloc_mwords",
           json_obj (List.map (fun (k, v) -> (k, json_float v)) alloc_mwords) );
         ("op_s", floats (fun r -> Int64.to_float r.op_ns /. 1e9) reps);
         ("uncovered_frac", floats (fun r -> r.uncovered_frac) reps);
         ("lb_calls", json_list (fun r -> string_of_int r.lb_calls) reps);
         ("queue_depth_max", floats (fun r -> r.queue_depth_max) reps);
         ( "self_frac",
           json_obj
             (List.map
                (fun l -> (l, floats (fun r -> List.assoc l r.self_frac) reps))
                layers) );
         ("loads.of_copies_s", floats (fun l -> l.of_copies_s) loads);
         ("attribution.attach_s", floats (fun l -> l.attach_s) loads);
         ("loads.proposal_ns", floats (fun l -> l.proposal_ns) loads);
       ])
