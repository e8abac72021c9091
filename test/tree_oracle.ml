(* Reference implementations of the tree primitives that [Hbn_tree.Flat]
   computes in place: a parent-pointer LCA and list-returning path and
   Steiner kernels. They are deliberately naive (O(depth) walks, fresh
   arrays, lists) so that each is obviously correct, and they fix the
   visiting orders the flat kernels must reproduce. Tests only. *)

module Tree = Hbn_tree.Tree

(* Lowest common ancestor in rooting [r], by walking parent pointers. *)
let lca (r : Tree.rooted) u v =
  let u = ref u and v = ref v in
  while r.Tree.depth.(!u) > r.Tree.depth.(!v) do
    u := r.Tree.parent.(!u)
  done;
  while r.Tree.depth.(!v) > r.Tree.depth.(!u) do
    v := r.Tree.parent.(!v)
  done;
  while !u <> !v do
    u := r.Tree.parent.(!u);
    v := r.Tree.parent.(!v)
  done;
  !u

(* Edges of the [u]–[v] path in traversal order: [u] up to the canonical
   LCA, then down to [v]. *)
let path_edges t u v =
  let r = Tree.rooting t in
  let a = lca r u v in
  let rec climb x acc =
    if x = a then acc else climb r.Tree.parent.(x) (r.Tree.parent_edge.(x) :: acc)
  in
  List.rev (climb u []) @ climb v []

let path_length t u v = List.length (path_edges t u v)

(* Edges of the minimal subtree spanning [nodes], in ascending canonical
   preorder position of their lower endpoint. *)
let steiner_edges t nodes =
  let mark = Array.make (Tree.n t) 0 in
  List.iter (fun v -> mark.(v) <- 1) nodes;
  let total = Array.fold_left ( + ) 0 mark in
  if total < 2 then []
  else begin
    let r = Tree.rooting t in
    let counts = Tree.subtree_sums r mark in
    let result = ref [] in
    for i = Array.length r.Tree.preorder - 1 downto 1 do
      let v = r.Tree.preorder.(i) in
      if counts.(v) > 0 && counts.(v) < total then
        result := r.Tree.parent_edge.(v) :: !result
    done;
    !result
  end
