module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Strategy = Hbn_core.Strategy
module Mapping = Hbn_core.Mapping
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink

type stats = { rounds : int; messages : int; max_node_work : int }

let ceil_log2 k =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  go 0 (max 1 k)

(* Pipelined convergecast schedule: [send.(v)] for object [x] is the round
   at which [v] forwards its aggregate for [x] to its parent. A node can
   forward wave [x] once every child has (previous round) and it has
   already forwarded wave [x-1] (one message per edge per round). Returns
   the completion round at the root of the last wave. *)
let convergecast_rounds tree objects =
  let r = Tree.rooting tree in
  let n = Tree.n tree in
  let prev = Array.make n 0 in
  let last_done = ref 0 in
  for x = 0 to objects - 1 do
    let send = Array.make n 0 in
    (* Children precede parents when preorder is traversed backwards. *)
    let pre = r.Tree.preorder in
    for i = n - 1 downto 0 do
      let v = pre.(i) in
      let from_children =
        Array.fold_left
          (fun acc c -> max acc (send.(c) + 1))
          (x + 1) r.Tree.children.(v)
      in
      send.(v) <- max from_children (prev.(v) + 1)
    done;
    Array.blit send 0 prev 0 n;
    let root_done =
      Array.fold_left
        (fun acc c -> max acc (send.(c) + 1))
        (x + 1) r.Tree.children.(r.Tree.root)
    in
    last_done := max !last_done root_done
  done;
  !last_done

(* Pipelined broadcast: wave x leaves the root at round x+1 and reaches
   depth d at round x+1+d. *)
let broadcast_rounds tree objects =
  let r = Tree.rooting tree in
  let depth = Array.fold_left max 0 r.Tree.depth in
  objects + depth

let sweep_messages tree objects = objects * (Tree.n tree - 1)

let nibble_rounds w =
  let tree = Workload.tree w in
  let objects = Workload.num_objects w in
  let sets = Nibble.place_all w in
  let per_object = Array.map (fun cs -> cs.Nibble.nodes) sets in
  (* Two convergecasts (subtree weights; gravity-candidate election) and
     two broadcasts (totals and contention; elected center), pipelined
     over objects within each sweep, sweeps run back to back. *)
  let rounds =
    (2 * convergecast_rounds tree objects) + (2 * broadcast_rounds tree objects)
  in
  let messages = 4 * sweep_messages tree objects in
  (* Per round a node handles one message per incident edge per sweep. *)
  let max_node_work =
    List.fold_left
      (fun acc v -> max acc (4 * objects * Tree.degree tree v))
      0
      (List.init (Tree.n tree) (fun i -> i))
  in
  if Trace.enabled () then begin
    Trace.count ~by:messages "dist.messages";
    Trace.event "dist.nibble"
      ~attrs:
        [
          ("rounds", Sink.Int rounds);
          ("messages", Sink.Int messages);
          ("max_node_work", Sink.Int max_node_work);
        ]
  end;
  (per_object, { rounds; messages; max_node_work })

let strategy_rounds w =
  let sp = Trace.span "dist.strategy_rounds" in
  let tree = Workload.tree w in
  let height = Tree.height tree in
  let _, nibble_stats = nibble_rounds w in
  let res = Strategy.run w in
  let sets = Nibble.place_all w in
  (* Deletion: one bottom-up wave per component, pipelined over objects;
     each deletion forwards the deleted copy's bookkeeping to the parent. *)
  let deletion_rounds =
    let component_height cs =
      List.fold_left
        (fun acc v -> max acc cs.Nibble.rooted.Tree.depth.(v))
        0 cs.Nibble.nodes
    in
    Array.to_list sets
    |> List.mapi (fun x cs -> x + 1 + component_height cs)
    |> List.fold_left max 0
  in
  let deletion_messages = res.Strategy.deletions in
  (* Mapping: height rounds up, height rounds down; every movement is one
     message and costs the mover O(log degree) heap work. *)
  let mapping_rounds = 2 * height in
  let work = Array.make (Tree.n tree) 0 in
  let mapping_messages =
    match res.Strategy.mapping with
    | None -> 0
    | Some s ->
      List.iter
        (fun c ->
          let v = c.Hbn_core.Copy.node in
          work.(v) <- work.(v) + ceil_log2 (Tree.degree tree v))
        res.Strategy.copies;
      s.Mapping.moves_up + s.Mapping.moves_down
  in
  let max_node_work =
    Array.fold_left max nibble_stats.max_node_work work
  in
  let stats =
    {
      rounds = nibble_stats.rounds + deletion_rounds + mapping_rounds;
      messages = nibble_stats.messages + deletion_messages + mapping_messages;
      max_node_work;
    }
  in
  if Trace.enabled () then begin
    Trace.count ~by:(deletion_messages + mapping_messages) "dist.messages";
    Trace.event "dist.strategy"
      ~attrs:
        [
          ("rounds", Sink.Int stats.rounds);
          ("messages", Sink.Int stats.messages);
          ("max_node_work", Sink.Int stats.max_node_work);
        ]
  end;
  Trace.finish sp;
  (res.Strategy.placement, stats)

type fault_report =
  | Recovered of {
      placement : Placement.t;
      emulated : stats;
      nibble : Dist_nibble.robust_stats;
      log : Faults.event list;
      health : Hbn_obs.Monitor.verdict option;
    }
  | Degraded of {
      reason : [ `Round_limit | `Undecided | `Diverged ];
      partial : int list array;
      nibble : Dist_nibble.robust_stats;
      log : Faults.event list;
      health : Hbn_obs.Monitor.verdict option;
    }

let reason_name = function
  | `Round_limit -> "round_limit"
  | `Undecided -> "undecided"
  | `Diverged -> "diverged"

let run_with_faults ?max_rounds ?timeout ?(faults = Faults.none) ?telemetry
    ?monitor ?link w =
  (* The monitor ingests inside the runtime; only the verdict is read
     back here, after run_robust returns. *)
  let health () = Option.map Hbn_obs.Monitor.health monitor in
  let report =
    match
      Dist_nibble.run_robust ?max_rounds ?timeout ~faults ?telemetry ?monitor
        ?link w
    with
    | Dist_nibble.Degraded { reason; partial; stats; log } ->
      Degraded
        {
          reason = (reason :> [ `Round_limit | `Undecided | `Diverged ]);
          partial;
          nibble = stats;
          log;
          health = health ();
        }
    | Dist_nibble.Complete { placement = sets; stats = nibble; log } ->
      let seq = Nibble.place_all w in
      if not (Array.for_all2 (fun got cs -> got = cs.Nibble.nodes) sets seq)
      then
        Degraded
          { reason = `Diverged; partial = sets; nibble; log; health = health () }
      else
        (* The recovered copy sets equal the pristine nibble's, so the
           remainder of the pipeline (deletion, mapping) proceeds exactly
           as in the fault-free emulation. *)
        let placement, emulated = strategy_rounds w in
        Recovered { placement; emulated; nibble; log; health = health () }
  in
  if Trace.enabled () then begin
    match report with
    | Recovered { nibble; log; _ } ->
      Trace.event "dist.recovered"
        ~attrs:
          [
            ("rounds", Sink.Int nibble.Dist_nibble.runtime.Runtime.rounds);
            ("retransmissions", Sink.Int nibble.Dist_nibble.retransmissions);
            ("faults", Sink.Int (List.length log));
          ]
    | Degraded { reason; nibble; log; _ } ->
      Trace.event "dist.degraded"
        ~attrs:
          [
            ("reason", Sink.Str (reason_name reason));
            ("undecided", Sink.Int nibble.Dist_nibble.undecided);
            ("faults", Sink.Int (List.length log));
          ]
  end;
  report
