module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble
module Trace = Hbn_trace.Trace

(* The nibble placement streamed through the nearest-copy evaluator:
   the per-edge integer sums of [Placement.edge_loads w
   (Nibble.placement w)], hence the same float, without holding every
   object's placement at once. *)
let nibble w =
  let scratch = Flat.Scratch.create (Flat.of_tree (Workload.tree w)) in
  Placement.nearest_congestion ~scratch w ~copies:(fun obj ->
      (Nibble.place ~scratch w ~obj).Nibble.nodes)

let single_object w =
  let tree = Workload.tree w in
  let best = ref 0 in
  for obj = 0 to Workload.num_objects w - 1 do
    let kappa = Workload.write_contention w ~obj in
    if kappa > 0 then begin
      let heaviest = ref 0 and total = ref 0 in
      List.iter
        (fun leaf ->
          let h = Workload.weight w ~obj leaf in
          total := !total + h;
          if h > !heaviest then heaviest := h)
        (Tree.leaves tree);
      best := max !best (min kappa (!total - !heaviest))
    end
  done;
  float_of_int !best

let combined w =
  let sp = Trace.span "lower_bounds.combined" in
  let lb = Float.max (nibble w) (single_object w) in
  Trace.finish sp;
  lb
