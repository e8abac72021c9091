module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Exec = Hbn_exec.Exec
module Trace = Hbn_obs.Trace
module Sink = Hbn_obs.Sink
module Attribution = Hbn_obs.Attribution

type result = {
  placement : Placement.t;
  nibble : Placement.t;
  modified : Placement.t;
  tau_max : int;
  mapping : Mapping.stats option;
  deletions : int;
  splits : int;
  mapped_objects : int list;
  copies : Copy.t list;
}

(* Per-object intermediate state after Step 2. *)
type stage =
  | Unused
  | Read_only of int list  (* requesting leaves; copies serve locally *)
  | Copies of Copy.t list

(* Building one object's placement from its stage is pure (all copy
   mutation is over by the time this runs), so it fans out too. *)
let placement_of_stage ?exec w stages =
  Exec.map_chunked
    (Option.value exec ~default:Exec.sequential)
    (Array.length stages)
    (fun obj ->
      match stages.(obj) with
      | Unused -> { Placement.copies = []; assigns = [] }
      | Read_only leaves ->
        let assigns =
          List.map
            (fun leaf ->
              {
                Placement.leaf;
                server = leaf;
                reads = Workload.reads w ~obj leaf;
                writes = Workload.writes w ~obj leaf;
              })
            leaves
        in
        { Placement.copies = leaves; assigns }
      | Copies cs ->
        let copies =
          List.sort_uniq compare (List.map (fun c -> c.Copy.node) cs)
        in
        let assigns =
          List.concat_map
            (fun c ->
              List.filter_map
                (fun g ->
                  if Nibble.group_weight g = 0 then None
                  else
                    Some
                      {
                        Placement.leaf = g.Nibble.leaf;
                        server = c.Copy.node;
                        reads = g.Nibble.reads;
                        writes = g.Nibble.writes;
                      })
                c.Copy.groups)
            cs
        in
        { Placement.copies; assigns })

(* The pure per-object stage of Step 2: local ids from 0, no shared state,
   no tracing — safe on any domain. The sequential merge below renumbers
   ids into one global sequence and emits the per-object trace events. *)
let stage_object ~scratch w cs =
  let obj = cs.Nibble.obj in
  let wf = Workload.flat w in
  if Workload.Flat.total_weight wf ~obj = 0 then (Unused, 0, 0, 0)
  else if Workload.Flat.kappa wf ~obj = 0 then
    (Read_only (Workload.requesting_leaves w ~obj), 0, 0, 0)
  else begin
    let outcome = Deletion.run ~scratch w cs in
    ( Copies outcome.Deletion.copies,
      outcome.Deletion.deletions,
      outcome.Deletion.splits,
      outcome.Deletion.ids_used )
  end

(* One attribution snapshot per pipeline phase, as [strategy.attribution]
   events tagged with the phase name. Guarded by [Trace.attribution]: a
   snapshot costs more than the phase it describes, so only a sink that
   asked for snapshots gets the tables built. *)
let emit_attribution phase w p =
  if Trace.attribution () then
    List.iter Trace.emit
      (Attribution.events ~name:"strategy.attribution"
         ~attrs:[ ("phase", Sink.Str phase) ]
         (Attribution.of_placement w p))

let run ?(move_leaf_copies = false) ?(verify = false) ?on_mapping_round
    ?(exec = Exec.sequential) w =
  let sp_run = Trace.span "strategy.run" in
  let tree = Workload.tree w in
  (* Force the shared flat structures before fanning out: the tasks then
     only read immutable arrays, through one scratch per executor slot. *)
  let num_objects = Workload.num_objects w in
  ignore (Workload.flat w);
  let fl = Flat.of_tree tree in
  let scratches =
    Array.init (Exec.jobs exec) (fun _ -> Flat.Scratch.create fl)
  in
  let scratch () = scratches.(Exec.current_worker ()) in
  let sp_nibble = Trace.span "strategy.nibble" in
  let step1 =
    Exec.map_chunked exec num_objects (fun obj ->
        let scratch = scratch () in
        let cs = Nibble.place ~scratch w ~obj in
        (cs, Placement.nearest_object ~scratch w ~obj ~copies:cs.Nibble.nodes))
  in
  let sets = Array.map fst step1 in
  let nibble_placement = Array.map snd step1 in
  if Trace.enabled () then
    Trace.finish sp_nibble
      ~attrs:
        [
          ("objects", Sink.Int (Array.length sets));
          ( "copies",
            Sink.Int
              (Array.fold_left
                 (fun a cs -> a + List.length cs.Nibble.nodes)
                 0 sets) );
        ];
  emit_attribution "nibble" w nibble_placement;
  let sp_deletion = Trace.span "strategy.deletion" in
  let staged =
    Exec.map_chunked exec num_objects (fun obj ->
        stage_object ~scratch:(scratch ()) w sets.(obj))
  in
  (* Deterministic merge, in object order: global totals, copy-id
     renumbering (bit-identical to the old shared-counter allocation at
     any job count), and the per-object trace events. *)
  let deletions = ref 0 and splits = ref 0 in
  let next_id = ref 0 in
  let stages =
    Array.mapi
      (fun obj (stage, dels, spls, ids_used) ->
        deletions := !deletions + dels;
        splits := !splits + spls;
        let stage =
          match stage with
          | Unused | Read_only _ -> stage
          | Copies cs ->
            let base = !next_id in
            Copies (List.map (fun c -> { c with Copy.id = base + c.Copy.id }) cs)
        in
        next_id := !next_id + ids_used;
        (if Trace.enabled () then
           match stage with
           | Unused | Read_only _ -> ()
           | Copies cs ->
             Trace.count ~by:dels "deletion.deleted";
             Trace.count ~by:spls "deletion.split_clones";
             Trace.event "deletion.object"
               ~attrs:
                 [
                   ("obj", Sink.Int obj);
                   ("kappa", Sink.Int (Workload.write_contention w ~obj));
                   ("deletions", Sink.Int dels);
                   ("splits", Sink.Int spls);
                   ("survivors", Sink.Int (List.length cs));
                 ]);
        stage)
      staged
  in
  if Trace.enabled () then
    Trace.finish sp_deletion
      ~attrs:
        [
          ("deletions", Sink.Int !deletions);
          ("splits", Sink.Int !splits);
        ];
  let modified = placement_of_stage ~exec w stages in
  emit_attribution "deletion" w modified;
  let all_copies =
    Array.to_list stages
    |> List.concat_map (function Copies cs -> cs | Unused | Read_only _ -> [])
  in
  let has_bus_copy cs =
    List.exists (fun c -> not (Tree.is_leaf tree c.Copy.node)) cs
  in
  let sp_mapping = Trace.span "strategy.mapping" in
  let mapped_objects = ref [] in
  let movable =
    Array.to_list stages
    |> List.mapi (fun obj stage -> (obj, stage))
    |> List.concat_map (fun (obj, stage) ->
           match stage with
           | Unused | Read_only _ -> []
           | Copies cs ->
             if has_bus_copy cs then begin
               mapped_objects := obj :: !mapped_objects;
               if move_leaf_copies then cs
               else
                 List.filter
                   (fun c -> not (Tree.is_leaf tree c.Copy.node))
                   cs
             end
             else [])
  in
  let mapping =
    match movable with
    | [] -> None
    | _ :: _ ->
      let basic_up, basic_down = Mapping.basic_loads tree all_copies in
      Some
        (Mapping.run ~verify ?on_round:on_mapping_round tree ~basic_up
           ~basic_down ~movable)
  in
  if Trace.enabled () then
    Trace.finish sp_mapping
      ~attrs:
        (let tau, up, down =
           match mapping with
           | None -> (0, 0, 0)
           | Some s -> (s.Mapping.tau_max, s.Mapping.moves_up, s.Mapping.moves_down)
         in
         [
           ("tau_max", Sink.Int tau);
           ("mapped_objects", Sink.Int (List.length !mapped_objects));
           ("moves_up", Sink.Int up);
           ("moves_down", Sink.Int down);
         ]);
  let placement = placement_of_stage ~exec w stages in
  emit_attribution "mapping" w placement;
  let result =
    {
      placement;
      nibble = nibble_placement;
      modified;
      tau_max = (match mapping with None -> 0 | Some s -> s.Mapping.tau_max);
      mapping;
      deletions = !deletions;
      splits = !splits;
      mapped_objects = List.rev !mapped_objects;
      copies = all_copies;
    }
  in
  if Trace.enabled () then begin
    Trace.count ~by:result.deletions "strategy.deletions";
    Trace.count ~by:result.splits "strategy.splits";
    Trace.finish sp_run
      ~attrs:
        [
          ("deletions", Sink.Int result.deletions);
          ("splits", Sink.Int result.splits);
          ("tau_max", Sink.Int result.tau_max);
          ("mapped_objects", Sink.Int (List.length result.mapped_objects));
        ]
  end;
  result

let congestion ?move_leaf_copies ?exec w =
  Placement.congestion ?exec w (run ?move_leaf_copies ?exec w).placement
