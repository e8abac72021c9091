module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Nibble = Hbn_nibble.Nibble

(* The nibble placement streamed into edge loads one object at a time,
   through one scratch: the per-edge integer sums of
   [Placement.edge_loads w (Nibble.placement w)], hence the same float,
   without holding every object's placement at once. *)
let nibble w =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  let loads = Array.make (max 1 (Tree.num_edges tree)) 0 in
  for obj = 0 to Workload.num_objects w - 1 do
    let copies = (Nibble.place ~scratch w ~obj).Nibble.nodes in
    Placement.iter_object_load_components_scratch fl scratch
      (Placement.nearest_object ~scratch w ~obj ~copies)
      (fun e _component amount -> loads.(e) <- loads.(e) + amount)
  done;
  (Placement.congestion_of_edge_loads tree loads).Placement.value

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

let combined w = Float.max (nibble w) (single_object w)
