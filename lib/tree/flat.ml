(* The iteration orders stated in flat.mli are part of the contract, not
   an accident: the simulator's hop order and the pipeline's outputs are
   gated to be bit-identical across job counts and releases. *)

type t = {
  tree : Tree.t;
  r : Tree.rooted;
  ix : Tree.flat_index;
  n : int;
  m : int;
}

let of_tree tree =
  {
    tree;
    r = Tree.rooting tree;
    ix = Tree.flat_index tree;
    n = Tree.n tree;
    m = Tree.num_edges tree;
  }

module Scratch = struct
  type t = {
    mutable stamp : int;
    nstamp : int array;
    estamp : int array;
    acc : int array;
    stack : int array;
    mutable sp : int;
    queue : int array;
  }

  let create fl =
    {
      stamp = 0;
      nstamp = Array.make fl.n 0;
      estamp = Array.make (max 1 fl.m) 0;
      acc = Array.make fl.n 0;
      stack = Array.make (max 1 fl.m) 0;
      sp = 0;
      queue = Array.make fl.n 0;
    }
end

(* The node of minimal depth between the first occurrences of [u] and
   [v] on the Euler tour, found in O(1) by overlapping the two
   power-of-two windows that cover the range. *)
let lca fl u v =
  let ix = fl.ix in
  let i = ix.Tree.first.(u) and j = ix.Tree.first.(v) in
  let i, j = if i <= j then (i, j) else (j, i) in
  let k = ix.Tree.elog2.(j - i + 1) in
  let a = ix.Tree.sparse.((k * ix.Tree.elen) + i) in
  let b = ix.Tree.sparse.((k * ix.Tree.elen) + j - (1 lsl k) + 1) in
  ix.Tree.enode.(if ix.Tree.edep.(a) <= ix.Tree.edep.(b) then a else b)

let depth fl v = fl.r.Tree.depth.(v)

let distance fl u v =
  let d = fl.r.Tree.depth in
  d.(u) + d.(v) - (2 * d.(lca fl u v))

let iter_path_to_root fl v f =
  let r = fl.r in
  let x = ref v in
  while !x <> r.Tree.root do
    f r.Tree.parent_edge.(!x);
    x := r.Tree.parent.(!x)
  done

let iter_path fl (scratch : Scratch.t) u v f =
  if u <> v then begin
    let a = lca fl u v in
    let r = fl.r in
    (* u → lca, in walking order. *)
    let x = ref u in
    while !x <> a do
      f r.Tree.parent_edge.(!x);
      x := r.Tree.parent.(!x)
    done;
    (* lca → v: stack the climb from v, replay it reversed. *)
    let stack = scratch.Scratch.stack in
    let sp = ref 0 in
    let x = ref v in
    while !x <> a do
      stack.(!sp) <- r.Tree.parent_edge.(!x);
      incr sp;
      x := r.Tree.parent.(!x)
    done;
    for i = !sp - 1 downto 0 do
      f stack.(i)
    done
  end

let iter_path_unordered fl u v f =
  if u <> v then begin
    let a = lca fl u v in
    let r = fl.r in
    let climb s =
      let x = ref s in
      while !x <> a do
        f r.Tree.parent_edge.(!x);
        x := r.Tree.parent.(!x)
      done
    in
    climb u;
    climb v
  end

let iter_steiner fl (scratch : Scratch.t) ~nodes f =
  scratch.Scratch.stamp <- scratch.Scratch.stamp + 1;
  let stamp = scratch.Scratch.stamp in
  let nstamp = scratch.Scratch.nstamp in
  let total = ref 0 in
  nodes (fun v ->
      if nstamp.(v) <> stamp then begin
        nstamp.(v) <- stamp;
        incr total
      end);
  if !total >= 2 then begin
    let r = fl.r in
    let acc = scratch.Scratch.acc in
    for v = 0 to fl.n - 1 do
      acc.(v) <- (if nstamp.(v) = stamp then 1 else 0)
    done;
    let pre = r.Tree.preorder and parent = r.Tree.parent in
    for i = fl.n - 1 downto 1 do
      let v = pre.(i) in
      acc.(parent.(v)) <- acc.(parent.(v)) + acc.(v)
    done;
    let total = !total in
    (* Ascending preorder scan: edges leave in the preorder position of
       their lower endpoint. *)
    let parent_edge = r.Tree.parent_edge in
    for i = 1 to fl.n - 1 do
      let v = pre.(i) in
      if acc.(v) > 0 && acc.(v) < total then f parent_edge.(v)
    done
  end

let subtree_sums_into fl (scratch : Scratch.t) ~src ~src_off =
  Tree.subtree_sums_into fl.r ~src ~src_off ~dst:scratch.Scratch.acc

(* Nearest marked node, lexicographic on (distance, id). The bottom-up
   pass leaves in [dist]/[near] the best node inside each canonical
   subtree; the top-down pass then offers every node its parent's global
   best one edge further away. A parent's best may lie inside the child's
   own subtree, but then the child already holds that node two edges
   closer, so the overestimate never wins — not even a tie. *)
let nearest_none = max_int

let offer_nearest dist near v ~from =
  if dist.(from) <> nearest_none then begin
    let d = dist.(from) + 1 in
    if d < dist.(v) || (d = dist.(v) && near.(from) < near.(v)) then begin
      dist.(v) <- d;
      near.(v) <- near.(from)
    end
  end

let iter_nearest fl (scratch : Scratch.t) ~nodes ~targets f =
  let dist = scratch.Scratch.acc and near = scratch.Scratch.queue in
  let n = fl.n in
  Array.fill dist 0 n nearest_none;
  Array.fill near 0 n (-1);
  nodes (fun v ->
      dist.(v) <- 0;
      near.(v) <- v);
  let pre = fl.r.Tree.preorder and parent = fl.r.Tree.parent in
  for i = n - 1 downto 1 do
    let v = pre.(i) in
    offer_nearest dist near parent.(v) ~from:v
  done;
  for i = 1 to n - 1 do
    let v = pre.(i) in
    offer_nearest dist near v ~from:parent.(v)
  done;
  targets (fun v ->
      if near.(v) < 0 then invalid_arg "Flat.iter_nearest: no nodes";
      f v near.(v) dist.(v))
