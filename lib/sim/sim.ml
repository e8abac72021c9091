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

type outcome = {
  makespan : int;
  completion : float;
  packets : int;
  transmissions : int;
  edge_traffic : int array;
  max_dilation : int;
  health : Monitor.verdict option;
}

let scale_up amount scale = if amount = 0 then 0 else ((amount - 1) / scale) + 1

type policy = Fifo | Round_robin | Reversed

(* Sorts [a.(lo) .. a.(hi - 1)] ascending in place (heapsort: no
   allocation, O(k log k) for k entries). *)
let sort_range (a : int array) lo hi =
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child =
        if child + 1 < len && a.(lo + child + 1) > a.(lo + child) then child + 1
        else child
      in
      if a.(lo + child) > a.(lo + root) then begin
        let t = a.(lo + root) in
        a.(lo + root) <- a.(lo + child);
        a.(lo + child) <- t;
        sift child len
      end
    end
  in
  let n = hi - lo in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let t = a.(lo) in
    a.(lo) <- a.(lo + last);
    a.(lo + last) <- t;
    sift 0 last
  done

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
  (* One edge traversal of one packet is a hop, numbered in injection
     order: [hop_edge.(i)] is the edge it crosses and [hop_dep.(i)] the
     hop that must complete first, or -1. *)
  let hop_edge = ref (Array.make 1024 0) and hop_dep = ref (Array.make 1024 0) in
  let count = ref 0 in
  let packets = ref 0 in
  let push edge dep =
    let i = !count in
    if i = Array.length !hop_edge then begin
      let grow a =
        let b = Array.make (2 * i) 0 in
        Array.blit a 0 b 0 i;
        b
      in
      hop_edge := grow !hop_edge;
      hop_dep := grow !hop_dep
    end;
    !hop_edge.(i) <- edge;
    !hop_dep.(i) <- dep;
    count := i + 1;
    i
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
  let n_hops = !count and hop_edge = !hop_edge and hop_dep = !hop_dep in
  let edge_traffic = Array.make m 0 in
  for i = 0 to n_hops - 1 do
    let e = hop_edge.(i) in
    edge_traffic.(e) <- edge_traffic.(e) + 1
  done;
  (* Dependency depth = packet dilation. *)
  let max_dilation = ref 0 in
  (let depth = Array.make (max 1 n_hops) 0 in
   for i = 0 to n_hops - 1 do
     let d = hop_dep.(i) in
     depth.(i) <- (if d >= 0 then depth.(d) + 1 else 1);
     if depth.(i) > !max_dilation then max_dilation := depth.(i)
   done);
  (* The hops each hop enables, as CSR: [dependents.(k)] for [k] in
     [dep_start.(i) .. dep_start.(i + 1) - 1], ascending. *)
  let dep_start = Array.make (n_hops + 1) 0 in
  for i = 0 to n_hops - 1 do
    let d = hop_dep.(i) in
    if d >= 0 then dep_start.(d + 1) <- dep_start.(d + 1) + 1
  done;
  for i = 1 to n_hops do
    dep_start.(i) <- dep_start.(i) + dep_start.(i - 1)
  done;
  let dependents = Array.make (max 1 n_hops) 0 in
  for i = 0 to n_hops - 1 do
    let d = hop_dep.(i) in
    if d >= 0 then begin
      dependents.(dep_start.(d)) <- i;
      dep_start.(d) <- dep_start.(d) + 1
    end
  done;
  for i = n_hops downto 1 do
    dep_start.(i) <- dep_start.(i - 1)
  done;
  dep_start.(0) <- 0;
  (* Event-driven greedy scheduling over virtual time. The allocator
     wakes at integer ticks of the {!Hbn_event.Engine} and serves the
     ready hops under per-tick capacity; a granted hop occupies its link
     for [Link.latency] virtual time and its dependents become eligible
     at the first tick after arrival. Without a link model (or under
     [Link.sync]) every latency is exactly 1 and every per-tick budget
     equals the static caps, so ticks are the synchronous rounds of the
     original engine, bit for bit. *)
  let attached =
    (* A lone processor has no edge, hence no level to look up. *)
    if Tree.num_edges tree = 0 then None
    else Option.map (fun c -> Link.attach c tree) link
  in
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
  let n = Tree.n tree in
  let bus_cap = Array.make n 0 in
  List.iter (fun b -> bus_cap.(b) <- 2 * Tree.bus_bandwidth tree b) (Tree.buses tree);
  let is_bus = Array.init n (fun v -> not (Tree.is_leaf tree v)) in
  let credit = Array.make m 0. in
  let bus_left = Array.make n 0 in
  (* [alive.(e)] is set iff a hop on [e] can be granted right now:
     [credit.(e) >= 1] and neither endpoint is a bus out of budget. Both
     conditions only fall within a tick, so the byte is computed at the
     refill (where every bus starts with budget: bandwidths are >= 1)
     and cleared by the grant that exhausts the edge or a bus. *)
  let alive = Bytes.make m '\000' in
  let spend b =
    bus_left.(b) <- bus_left.(b) - 1;
    if bus_left.(b) = 0 then begin
      let cs = r.Tree.children.(b) in
      for k = 0 to Array.length cs - 1 do
        Bytes.set alive r.Tree.parent_edge.(cs.(k)) '\000'
      done;
      if b <> r.Tree.root then Bytes.set alive r.Tree.parent_edge.(b) '\000'
    end
  in
  (* The frontier: ready hops in service order, double-buffered. Between
     ticks [cur.(0 .. front_len - 1)] are the hops a tick left unserved,
     in the order it scanned them, and [cur.(front_len .. front_end - 1)]
     the dependents enabled since; [cur_e] caches each entry's edge.
     Hops whose dependency is already done enter in index order (FIFO by
     injection). *)
  let cap = max 1 n_hops in
  let cur = ref (Array.make cap 0) and cur_e = ref (Array.make cap 0) in
  let nxt = ref (Array.make cap 0) and nxt_e = ref (Array.make cap 0) in
  let front_len = ref 0 and front_end = ref 0 in
  for i = 0 to n_hops - 1 do
    if hop_dep.(i) < 0 then begin
      !cur.(!front_end) <- i;
      incr front_end
    end
  done;
  let remaining = ref n_hops in
  let rounds = ref 0 in
  let completion = ref 0. in
  let engine = Engine.create () in
  (* Arrivals (rank 0) land before the tick (rank 1) they enable, so a
     tick always sees every hop whose dependency cleared by its time. *)
  let enable i =
    let f = !cur in
    for k = dep_start.(i) to dep_start.(i + 1) - 1 do
      f.(!front_end) <- dependents.(k);
      incr front_end
    done
  in
  (* Ticks scheduled and not yet fired. A time at or before the last
     tick that fired is a no-op: that tick already ran. *)
  let pending_ticks = Hashtbl.create 64 in
  let last_tick = ref 0. in
  let rec ensure_tick time =
    if time > !last_tick && not (Hashtbl.mem pending_ticks time) then begin
      Hashtbl.add pending_ticks time ();
      Engine.at engine ~rank:1 ~time tick
    end
  and tick () =
    let now = Engine.now engine in
    Hashtbl.remove pending_ticks now;
    incr rounds;
    (match telemetry with
    | None -> ()
    | Some tel ->
      Telemetry.begin_round ~vtime:now tel ~round:(int_of_float now));
    let remaining_before = !remaining in
    let dt = now -. !last_tick in
    last_tick := now;
    Array.blit bus_cap 0 bus_left 0 n;
    for e = 0 to m - 1 do
      let c = credit.(e) +. (rate.(e) *. dt) in
      let c = if c < burst.(e) then c else burst.(e) in
      credit.(e) <- c;
      Bytes.set alive e (if c >= 1. then '\001' else '\000')
    done;
    let src = !cur and src_e = !cur_e and dst = !nxt and dst_e = !nxt_e in
    sort_range src !front_len !front_end;
    for j = !front_len to !front_end - 1 do
      src_e.(j) <- hop_edge.(src.(j))
    done;
    let len = !front_end in
    let kept = ref 0 in
    let enabled = ref 0 in
    (* The scheduling policy permutes the service order of the ready
       hops; any order is work-conserving, experiment E16 measures how
       little it matters. Round_robin starts [rounds mod len] entries in
       and wraps around. *)
    let start =
      match policy with
      | Fifo -> 0
      | Reversed -> len - 1
      | Round_robin -> if len = 0 then 0 else !rounds mod len
    in
    let step = match policy with Reversed -> -1 | Fifo | Round_robin -> 1 in
    let j = ref start in
    for _ = 1 to len do
      let i = src.(!j) and e = src_e.(!j) in
      if Bytes.get alive e <> '\000' then begin
        (match telemetry with
        | None -> ()
        | Some tel -> Telemetry.send tel ~edge:e ~bytes:1);
        let c = credit.(e) -. 1. in
        credit.(e) <- c;
        if c < 1. then Bytes.set alive e '\000';
        let u, v = Tree.edge_endpoints tree e in
        if is_bus.(u) then spend u;
        if is_bus.(v) then spend v;
        decr remaining;
        let arrival = now +. hop_latency.(e) in
        if arrival > !completion then completion := arrival;
        (* Dependents become ready at the first tick after the hop has
           fully arrived (store-and-forward: next round under sync). A
           latency that rounds away against [now] still waits a tick. *)
        let fanout = dep_start.(i + 1) - dep_start.(i) in
        if fanout > 0 then begin
          enabled := !enabled + fanout;
          ensure_tick (Float.max (Float.ceil arrival) (now +. 1.));
          Engine.at engine ~time:arrival (fun () -> enable i)
        end
      end
      else begin
        dst.(!kept) <- i;
        dst_e.(!kept) <- e;
        incr kept
      end;
      j := !j + step;
      if !j = len then j := 0
    done;
    cur := dst;
    cur_e := dst_e;
    nxt := src;
    nxt_e := src_e;
    front_len := !kept;
    front_end := !kept;
    if !kept > 0 then ensure_tick (now +. 1.);
    (match telemetry with
    | None -> ()
    | Some tel -> Telemetry.end_round tel ~live_nodes:n);
    if Trace.enabled () then begin
      Trace.gauge "sim.queue_depth" (float_of_int (!kept + !enabled));
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

let lower_bound w _placement outcome =
  let tree = Workload.tree w in
  let cong =
    (Placement.congestion_of_edge_loads tree outcome.edge_traffic)
      .Placement.value
  in
  Float.max cong (float_of_int outcome.max_dilation)
