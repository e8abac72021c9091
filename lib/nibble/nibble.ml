module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

type copy_set = {
  obj : int;
  nodes : int list;
  gravity : int;
  rooted : Tree.rooted;
}

(* Center-of-gravity search shared by the public entry point and the flat
   hot path: [acc] holds the canonical subtree sums of the weights,
   [total] their sum. Removing v leaves the children subtrees and the
   rest of the tree; v is a center of gravity iff the heaviest such
   component carries at most half the total weight. *)
let gravity_of_sums r ~acc ~total n =
  let heaviest v =
    let above = total - acc.(v) in
    Array.fold_left (fun m c -> max m acc.(c)) above r.Tree.children.(v)
  in
  let rec search v =
    if v >= n then
      invalid_arg "Nibble.gravity_center: no center found (impossible)"
    else if 2 * heaviest v <= total then v
    else search (v + 1)
  in
  search 0

let gravity_center t ~weights =
  let r = Tree.rooting t in
  let total = Array.fold_left ( + ) 0 weights in
  let sums = Tree.subtree_sums r weights in
  gravity_of_sums r ~acc:sums ~total (Tree.n t)

type group = { leaf : int; reads : int; writes : int }

let group_weight g = g.reads + g.writes

let place ?scratch w ~obj =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let wf = Workload.flat w in
  let total = Workload.Flat.total_weight wf ~obj in
  if total = 0 then
    { obj; nodes = []; gravity = 0; rooted = Tree.rooting tree }
  else begin
    let scratch =
      match scratch with Some s -> s | None -> Flat.Scratch.create fl
    in
    let weights = wf.Workload.Flat.weights in
    let base = Workload.Flat.row_base wf ~obj in
    (* Weight sums over the canonical rooting locate the gravity center
       without materializing a per-object weight vector. *)
    Flat.subtree_sums_into fl scratch ~src:weights ~src_off:base;
    let acc = scratch.Flat.Scratch.acc in
    let gravity = gravity_of_sums fl.Flat.r ~acc ~total fl.Flat.n in
    let rooted = Tree.reroot tree gravity in
    let kappa = Workload.Flat.kappa wf ~obj in
    (* Re-aggregate in the gravity rooting; the nibble rule reads these
       sums. [acc] is reused — the canonical sums are spent. *)
    Tree.subtree_sums_into rooted ~src:weights ~src_off:base ~dst:acc;
    let nodes = ref [] in
    for v = Tree.n tree - 1 downto 0 do
      if v = gravity || acc.(v) > kappa then nodes := v :: !nodes
    done;
    { obj; nodes = !nodes; gravity; rooted }
  end

let place_all w =
  let scratch = Flat.Scratch.create (Flat.of_tree (Workload.tree w)) in
  Array.init (Workload.num_objects w) (fun obj -> place ~scratch w ~obj)

let placement w =
  let sets = place_all w in
  let copies = Array.map (fun cs -> cs.nodes) sets in
  Placement.nearest w ~copies

let edge_loads w = Placement.edge_loads w (placement w)

let served_groups ?scratch w cs =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let scratch =
    match scratch with Some s -> s | None -> Flat.Scratch.create fl
  in
  (* Copy-set membership as stamps: no per-call boolean array. *)
  scratch.Flat.Scratch.stamp <- scratch.Flat.Scratch.stamp + 1;
  let stamp = scratch.Flat.Scratch.stamp in
  let nstamp = scratch.Flat.Scratch.nstamp in
  List.iter (fun v -> nstamp.(v) <- stamp) cs.nodes;
  let out = Array.make (Tree.n tree) [] in
  let wf = Workload.flat w in
  Workload.Flat.iter_requesting wf ~obj:cs.obj (fun leaf ->
      match
        Tree.first_on_path cs.rooted ~member:(fun v -> nstamp.(v) = stamp) leaf
      with
      | None ->
        invalid_arg "Nibble.served_groups: request with no copy on its path"
      | Some server ->
        let g =
          {
            leaf;
            reads = Workload.reads w ~obj:cs.obj leaf;
            writes = Workload.writes w ~obj:cs.obj leaf;
          }
        in
        out.(server) <- g :: out.(server));
  out

let is_connected tree nodes =
  match nodes with
  | [] -> true
  | first :: _ ->
    let in_set = Array.make (Tree.n tree) false in
    List.iter (fun v -> in_set.(v) <- true) nodes;
    let seen = Array.make (Tree.n tree) false in
    let rec dfs v =
      seen.(v) <- true;
      Array.iter
        (fun (u, _) -> if in_set.(u) && not seen.(u) then dfs u)
        (Tree.neighbors tree v)
    in
    dfs first;
    List.for_all (fun v -> seen.(v)) nodes
