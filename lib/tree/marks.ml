type t = {
  r : Tree.rooted;
  marked : bool array;
  mutable count : int;
  (* Per node: nearest marked node inside its subtree, as (distance, id);
     [best_d.(v) = none] when the subtree holds no marked node. Ties on
     distance break to the lowest id. This is the bottom-up pass of
     [Flat.iter_nearest] (the from-scratch kernel behind
     [Placement.nearest] and [Loads.of_copies]), kept up to date under
     toggles instead of recomputed in O(n). *)
  best_d : int array;
  best_n : int array;
}

let none = max_int

let create r =
  let n = Array.length r.Tree.parent in
  {
    r;
    marked = Array.make n false;
    count = 0;
    best_d = Array.make n none;
    best_n = Array.make n (-1);
  }

let is_marked t v = t.marked.(v)

let count t = t.count

let marked t =
  let out = ref [] in
  for v = Array.length t.marked - 1 downto 0 do
    if t.marked.(v) then out := v :: !out
  done;
  !out

(* Recompute [best] at [v] from itself and its children; true if changed. *)
let refresh t v =
  let d = ref (if t.marked.(v) then 0 else none) in
  let id = ref (if t.marked.(v) then v else -1) in
  Array.iter
    (fun c ->
      if t.best_d.(c) <> none then begin
        let cd = t.best_d.(c) + 1 in
        if cd < !d || (cd = !d && t.best_n.(c) < !id) then begin
          d := cd;
          id := t.best_n.(c)
        end
      end)
    t.r.Tree.children.(v);
  if !d = t.best_d.(v) && !id = t.best_n.(v) then false
  else begin
    t.best_d.(v) <- !d;
    t.best_n.(v) <- !id;
    true
  end

let repair_upwards t v =
  let x = ref v and go = ref true in
  while !go do
    go := refresh t !x && !x <> t.r.Tree.root;
    if !go then x := t.r.Tree.parent.(!x)
  done

let mark t v =
  if not t.marked.(v) then begin
    t.marked.(v) <- true;
    t.count <- t.count + 1;
    repair_upwards t v
  end

let unmark t v =
  if t.marked.(v) then begin
    t.marked.(v) <- false;
    t.count <- t.count - 1;
    repair_upwards t v
  end

let nearest t v =
  (* Min over ancestors [a] of (dist(v, a) + best_d.(a)): for the true
     nearest marked node the term is exact at [a = lca], and every other
     term only overestimates, so the scan returns the correct minimum
     (ties to the lowest id, as in the subtree aggregation). *)
  let best_d = ref none and best_n = ref (-1) in
  let a = ref v and dist = ref 0 and go = ref true in
  while !go do
    if t.best_d.(!a) <> none && !dist <= !best_d then begin
      let cand = !dist + t.best_d.(!a) in
      if cand < !best_d || (cand = !best_d && t.best_n.(!a) < !best_n) then begin
        best_d := cand;
        best_n := t.best_n.(!a)
      end
    end;
    if !a = t.r.Tree.root || !dist > !best_d then go := false
    else begin
      a := t.r.Tree.parent.(!a);
      incr dist
    end
  done;
  if !best_n < 0 then None else Some (!best_n, !best_d)
