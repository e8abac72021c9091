(* Reference scheduler for [Hbn_sim.Sim.run]: the list-based
   implementation the array scheduler replaced, kept as written so that
   a differential test can hold the two to the same outcome, telemetry
   series and trace gauges. Its frontier is a list grown with [@] and
   re-walked every tick, the hop list is boxed and copied into an array,
   and ticks are deduplicated through a [Hashtbl] that is never pruned —
   simple to read, quadratic-ish in the frontier. Tests only. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Telemetry = Hbn_obs.Telemetry
module Monitor = Hbn_obs.Monitor
module Engine = Hbn_event.Engine
module Link = Hbn_event.Link
module Sim = Hbn_sim.Sim

type outcome = Sim.outcome = {
  makespan : int;
  completion : float;
  packets : int;
  transmissions : int;
  edge_traffic : int array;
  max_dilation : int;
  health : Monitor.verdict option;
}

(* One edge traversal of one packet. [dep] is the index (into the global
   transmission array) of the traversal that must complete first, or -1. *)
type hop = { edge : int; dep : int }

let scale_up amount scale = if amount = 0 then 0 else ((amount - 1) / scale) + 1

type policy = Sim.policy = Fifo | Round_robin | Reversed

let run ?(scale = 1) ?(policy = Fifo) ?telemetry ?monitor ?link w placement =
  if scale < 1 then invalid_arg "Sim.run: scale must be >= 1";
  let sp_run = Trace.span "sim.run" in
  let tree = Workload.tree w in
  (* As in Runtime.run_core: a monitor with no caller-owned collector
     records into a private one just for the end-of-run ingest. *)
  let telemetry =
    match (telemetry, monitor) with
    | None, Some _ ->
      Some (Telemetry.create ~num_edges:(Tree.num_edges tree) ())
    | _ -> telemetry
  in
  let m = max 1 (Tree.num_edges tree) in
  let hops_rev = ref [] in
  let count = ref 0 in
  let packets = ref 0 in
  let push edge dep =
    hops_rev := { edge; dep } :: !hops_rev;
    incr count;
    !count - 1
  in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  let r = fl.Flat.r in
  let add_unicast ~from ~target =
    let last = ref (-1) in
    Flat.iter_path fl scratch from target (fun edge -> last := push edge !last);
    !last
  in
  (* Multicast from [source] over the Steiner tree of [nodes], gated on
     [dep]: BFS orientation away from the source. The tree's edges are
     stamped in [estamp] and unstamped as the BFS crosses them; each node
     offers its child edges in reverse [children] order, then its parent
     edge — descending preorder of the lower endpoint. *)
  let bfs_node = Array.make fl.Flat.n 0 and bfs_dep = Array.make fl.Flat.n 0 in
  let add_multicast ~source ~nodes ~dep =
    let estamp = scratch.Flat.Scratch.estamp in
    Flat.iter_steiner fl scratch
      ~nodes:(fun mark -> List.iter mark nodes)
      (fun e -> estamp.(e) <- scratch.Flat.Scratch.stamp);
    let stamp = scratch.Flat.Scratch.stamp in
    let tail = ref 1 in
    let cross e next d =
      if estamp.(e) = stamp then begin
        estamp.(e) <- 0;
        bfs_node.(!tail) <- next;
        bfs_dep.(!tail) <- push e d;
        incr tail
      end
    in
    bfs_node.(0) <- source;
    bfs_dep.(0) <- dep;
    let head = ref 0 in
    while !head < !tail do
      let node = bfs_node.(!head) and d = bfs_dep.(!head) in
      incr head;
      let cs = r.Tree.children.(node) in
      for i = Array.length cs - 1 downto 0 do
        cross r.Tree.parent_edge.(cs.(i)) cs.(i) d
      done;
      if node <> r.Tree.root then
        cross r.Tree.parent_edge.(node) r.Tree.parent.(node) d
    done
  in
  Array.iteri
    (fun _obj (op : Placement.obj_placement) ->
      List.iter
        (fun (a : Placement.assignment) ->
          let reads = scale_up a.Placement.reads scale in
          let writes = scale_up a.Placement.writes scale in
          for _ = 1 to reads do
            incr packets;
            ignore (add_unicast ~from:a.Placement.leaf ~target:a.Placement.server)
          done;
          for _ = 1 to writes do
            incr packets;
            let arrival =
              add_unicast ~from:a.Placement.leaf ~target:a.Placement.server
            in
            add_multicast ~source:a.Placement.server ~nodes:op.Placement.copies
              ~dep:arrival
          done)
        op.Placement.assigns)
    placement;
  let hops = Array.of_list (List.rev !hops_rev) in
  let n_hops = Array.length hops in
  let edge_traffic = Array.make m 0 in
  Array.iter (fun h -> edge_traffic.(h.edge) <- edge_traffic.(h.edge) + 1) hops;
  (* Dependency depth = packet dilation. *)
  let depth = Array.make (max 1 n_hops) 0 in
  let max_dilation = ref 0 in
  Array.iteri
    (fun i h ->
      depth.(i) <- (if h.dep >= 0 then depth.(h.dep) + 1 else 1);
      if depth.(i) > !max_dilation then max_dilation := depth.(i))
    hops;
  (* Event-driven greedy scheduling over virtual time. The allocator
     wakes at integer ticks of the {!Hbn_event.Engine} and serves the
     ready hops under per-tick capacity; a granted hop occupies its link
     for [Link.latency] virtual time and its dependents become eligible
     at the first tick after arrival. Without a link model (or under
     [Link.sync]) every latency is exactly 1 and every per-tick budget
     equals the static caps, so ticks are the synchronous rounds of the
     original engine, bit for bit. *)
  let attached = Option.map (fun c -> Link.attach c tree) link in
  let edge_cap = Array.init m (fun e ->
      if Tree.num_edges tree = 0 then 1 else Tree.edge_bandwidth tree e)
  in
  (* Per-edge service rate in packets per tick: the static SCI width
     [b(e)] in the synchronous regime (bandwidth "inf"), overridden by
     the level's finite bandwidth otherwise. Credits accumulate across
     ticks up to one tick's burst — with an integral rate that reduces
     exactly to the per-round cap of the synchronous engine. *)
  let rate = Array.init m (fun e ->
      match attached with
      | None -> float_of_int edge_cap.(e)
      | Some l ->
        let b = Link.bandwidth (Link.config l) ~level:(Link.edge_level l e) in
        if b = Float.infinity then float_of_int edge_cap.(e) else b)
  in
  let burst = Array.map (fun r -> Float.max r 1.) rate in
  let hop_latency = Array.init m (fun e ->
      match attached with
      | None -> 1.
      | Some l -> Link.latency l ~edge:e ~bytes:1)
  in
  let bus_cap = Array.make (Tree.n tree) 0 in
  List.iter (fun b -> bus_cap.(b) <- 2 * Tree.bus_bandwidth tree b) (Tree.buses tree);
  let is_bus = Array.init (Tree.n tree) (fun v -> not (Tree.is_leaf tree v)) in
  let credit = Array.make m 0. in
  let bus_left = Array.make (Tree.n tree) 0 in
  let frontier = ref [] in
  (* Hops whose dependency is already done enter the frontier in index
     order (FIFO by injection). *)
  let blocked_children = Array.make (max 1 n_hops) [] in
  for i = n_hops - 1 downto 0 do
    let h = hops.(i) in
    if h.dep < 0 then frontier := i :: !frontier
    else blocked_children.(h.dep) <- i :: blocked_children.(h.dep)
  done;
  let remaining = ref n_hops in
  let rounds = ref 0 in
  let completion = ref 0. in
  let engine = Engine.create () in
  (* Arrivals (rank 0) land before the tick (rank 1) they enable, so a
     tick always sees every hop whose dependency cleared by its time. *)
  let newly = ref [] in
  let tick_scheduled = Hashtbl.create 64 in
  let last_tick = ref 0. in
  let rec ensure_tick time =
    if not (Hashtbl.mem tick_scheduled time) then begin
      Hashtbl.add tick_scheduled time ();
      Engine.at engine ~rank:1 ~time tick
    end
  and tick () =
    let now = Engine.now engine in
    incr rounds;
    (match telemetry with
    | None -> ()
    | Some tel ->
      Telemetry.begin_round ~vtime:now tel ~round:(int_of_float now));
    let remaining_before = !remaining in
    let dt = now -. !last_tick in
    last_tick := now;
    for e = 0 to m - 1 do
      credit.(e) <- Float.min (credit.(e) +. (rate.(e) *. dt)) burst.(e)
    done;
    Array.iteri (fun v c -> bus_left.(v) <- c) bus_cap;
    frontier := !frontier @ List.sort compare !newly;
    newly := [];
    let next = ref [] in
    let enabled = ref 0 in
    let scheduled =
      (* The scheduling policy permutes the service order of the ready
         hops; any order is work-conserving, experiment E16 measures how
         little it matters. *)
      match policy with
      | Fifo -> !frontier
      | Reversed -> List.rev !frontier
      | Round_robin ->
        let len = List.length !frontier in
        if len = 0 then []
        else begin
          let k = !rounds mod len in
          (* Rotate the frontier by k positions. *)
          let rec split i acc = function
            | rest when i = k -> rest @ List.rev acc
            | x :: rest -> split (i + 1) (x :: acc) rest
            | [] -> List.rev acc
          in
          split 0 [] !frontier
        end
    in
    List.iter
      (fun i ->
        let h = hops.(i) in
        let u, v = Tree.edge_endpoints tree h.edge in
        let bus_ok b = (not is_bus.(b)) || bus_left.(b) > 0 in
        if credit.(h.edge) >= 1. && bus_ok u && bus_ok v then begin
          (match telemetry with
          | None -> ()
          | Some tel -> Telemetry.send tel ~edge:h.edge ~bytes:1);
          credit.(h.edge) <- credit.(h.edge) -. 1.;
          if is_bus.(u) then bus_left.(u) <- bus_left.(u) - 1;
          if is_bus.(v) then bus_left.(v) <- bus_left.(v) - 1;
          decr remaining;
          let arrival = now +. hop_latency.(h.edge) in
          if arrival > !completion then completion := arrival;
          (* Children become ready at the first tick after the hop has
             fully arrived (store-and-forward: next round under sync). *)
          (match blocked_children.(i) with
          | [] -> ()
          | children ->
            enabled := !enabled + List.length children;
            ensure_tick (Float.ceil arrival);
            Engine.at engine ~time:arrival (fun () ->
                List.iter (fun c -> newly := c :: !newly) children))
        end
        else next := i :: !next)
      scheduled;
    frontier := List.rev !next;
    if !frontier <> [] then ensure_tick (now +. 1.);
    (match telemetry with
    | None -> ()
    | Some tel -> Telemetry.end_round tel ~live_nodes:(Tree.n tree));
    if Trace.enabled () then begin
      Trace.gauge "sim.queue_depth"
        (float_of_int (List.length !frontier + !enabled));
      Trace.gauge "sim.round_transmissions"
        (float_of_int (remaining_before - !remaining))
    end
  in
  if n_hops > 0 then ensure_tick 1.;
  Engine.drain engine;
  assert (!remaining = 0);
  let health =
    Option.map
      (fun mon ->
        (match telemetry with
        | Some tel -> Monitor.ingest mon tel
        | None -> ());
        Monitor.health mon)
      monitor
  in
  let outcome =
    {
      makespan = !rounds;
      completion = !completion;
      packets = !packets;
      transmissions = n_hops;
      edge_traffic;
      max_dilation = !max_dilation;
      health;
    }
  in
  if Trace.enabled () then begin
    Trace.count ~by:outcome.packets "sim.packets";
    Trace.count ~by:outcome.transmissions "sim.transmissions";
    Trace.event "sim.outcome"
      ~attrs:
        [
          ("makespan", Sink.Int outcome.makespan);
          ("packets", Sink.Int outcome.packets);
          ("transmissions", Sink.Int outcome.transmissions);
          ("max_dilation", Sink.Int outcome.max_dilation);
          ("scale", Sink.Int scale);
        ];
    Trace.finish sp_run
      ~attrs:
        [
          ("makespan", Sink.Int outcome.makespan);
          ("packets", Sink.Int outcome.packets);
        ]
  end;
  outcome
