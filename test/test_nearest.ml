(* The nearest-copy kernel ([Flat.iter_nearest]) and everything routed
   through it — [Placement.nearest], [Loads.of_copies] and the streamed
   [Lower_bounds.nibble] — against the quadratic scan it replaced, kept
   here as the oracle, on degenerate shapes: single-leaf trees, stars,
   paths, deep caterpillars, equidistant copies and copies on buses. *)

module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads
module Nibble = Hbn_nibble.Nibble
module Lower_bounds = Hbn_exact.Lower_bounds

(* The oracle: every requesting leaf scans every copy, in ascending id
   order, and only a strictly smaller distance displaces the incumbent —
   O(requesting leaves × copies) per object. *)
let oracle_object w ~obj ~copies =
  let tree = Workload.tree w in
  let cs = List.sort_uniq compare copies in
  let requesting = Workload.requesting_leaves w ~obj in
  if requesting <> [] && cs = [] then invalid_arg "oracle: no copies";
  let closest leaf =
    let best = ref (-1) and best_d = ref max_int in
    List.iter
      (fun c ->
        let d = Tree_oracle.path_length tree leaf c in
        if d < !best_d then begin
          best := c;
          best_d := d
        end)
      cs;
    !best
  in
  {
    Placement.copies = cs;
    assigns =
      List.map
        (fun leaf ->
          {
            Placement.leaf;
            server = closest leaf;
            reads = Workload.reads w ~obj leaf;
            writes = Workload.writes w ~obj leaf;
          })
        requesting;
  }

let oracle w ~copies =
  Array.init (Workload.num_objects w) (fun obj ->
      oracle_object w ~obj ~copies:copies.(obj))

(* {1 Degenerate shapes} *)

let single_leaf () =
  Tree.make ~kinds:[| Tree.Processor |] ~edges:[] ~bus_bandwidth:(fun _ -> 1) ()

(* Processor 0 — bus 1 — … — bus k — processor k+1. *)
let path_tree ~buses =
  let kinds =
    Array.init (buses + 2) (fun v ->
        if v = 0 || v = buses + 1 then Tree.Processor else Tree.Bus)
  in
  Tree.make ~kinds
    ~edges:(List.init (buses + 1) (fun v -> (v, v + 1, 1)))
    ~bus_bandwidth:(fun _ -> 1)
    ()

let shape prng =
  let profile = Builders.Uniform 1 in
  match Prng.int prng 6 with
  | 0 -> single_leaf ()
  | 1 -> Builders.star ~leaves:(Prng.int_in prng 2 9) ~profile
  | 2 -> path_tree ~buses:(Prng.int_in prng 1 8)
  | 3 ->
    Builders.caterpillar ~spine:(Prng.int_in prng 6 20)
      ~leaves_per_bus:(Prng.int_in prng 1 2) ~profile
  | 4 ->
    Builders.balanced ~arity:(Prng.int_in prng 2 3)
      ~height:(Prng.int_in prng 1 3) ~profile
  | _ -> Helpers.random_tree prng

(* Sparse random frequencies, so some leaves request nothing. *)
let sparse_workload prng tree =
  let w = Workload.empty tree ~objects:(Prng.int_in prng 1 4) in
  for obj = 0 to Workload.num_objects w - 1 do
    List.iter
      (fun leaf ->
        if Prng.int prng 3 > 0 then begin
          Workload.set_read w ~obj leaf (Prng.int prng 6);
          Workload.set_write w ~obj leaf (Prng.int prng 4)
        end)
      (Tree.leaves tree)
  done;
  w

(* Between one and a handful of copies, duplicates included; on any node
   (buses too) unless [leaves_only]. *)
let random_copies ?(leaves_only = false) prng w =
  let tree = Workload.tree w in
  let pool =
    if leaves_only then Tree.leaves_array tree
    else Array.init (Tree.n tree) Fun.id
  in
  Array.init (Workload.num_objects w) (fun _ ->
      List.init (Prng.int_in prng 1 5) (fun _ ->
          pool.(Prng.int prng (Array.length pool))))

(* {1 The kernel} *)

(* Every node as a target, any node set as copies, against the scan. *)
let prop_kernel_matches_scan seed =
  let prng = Prng.create seed in
  let tree = shape prng in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  let n = Tree.n tree in
  List.for_all
    (fun _ ->
      let nodes = List.init (Prng.int_in prng 1 6) (fun _ -> Prng.int prng n) in
      let want v =
        List.fold_left
          (fun (bc, bd) c ->
            let d = Tree_oracle.path_length tree v c in
            if d < bd || (d = bd && c < bc) then (c, d) else (bc, bd))
          (max_int, max_int) nodes
      in
      let ok = ref true in
      Flat.iter_nearest fl scratch
        ~nodes:(fun mark -> List.iter mark nodes)
        ~targets:(fun visit ->
          for v = n - 1 downto 0 do
            visit v
          done)
        (fun v c d -> ok := !ok && (c, d) = want v);
      !ok)
    (List.init 10 Fun.id)

let test_kernel_visits_targets_in_order () =
  let tree = path_tree ~buses:3 in
  let fl = Flat.of_tree tree in
  let seen = ref [] in
  Flat.iter_nearest fl (Flat.Scratch.create fl)
    ~nodes:(fun mark -> mark 4)
    ~targets:(fun visit -> List.iter visit [ 2; 0; 2 ])
    (fun v c d -> seen := (v, c, d) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "target order, duplicates kept"
    [ (2, 4, 2); (0, 4, 4); (2, 4, 2) ]
    (List.rev !seen);
  Alcotest.check_raises "no nodes"
    (Invalid_argument "Flat.iter_nearest: no nodes") (fun () ->
      Flat.iter_nearest fl (Flat.Scratch.create fl)
        ~nodes:(fun _ -> ())
        ~targets:(fun visit -> visit 0)
        (fun _ _ _ -> ()))

(* Equidistant copies: the lowest id wins, wherever the copies sit and
   in whatever order they are listed. *)
let test_equidistant_lowest_id () =
  let server tree ~leaf copies =
    let w = Workload.empty tree ~objects:1 in
    Workload.set_read w ~obj:0 leaf 1;
    let p = Placement.nearest w ~copies:[| copies |] in
    (List.hd p.(0).Placement.assigns).Placement.server
  in
  let tie name tree ~leaf a b =
    let d = Tree_oracle.path_length tree leaf in
    if d a <> d b then Alcotest.failf "%s: copies not equidistant" name;
    Alcotest.(check int) name (min a b) (server tree ~leaf [ a; b ]);
    Alcotest.(check int) (name ^ ", reversed") (min a b)
      (server tree ~leaf [ b; a ])
  in
  (* Star: bus 0, processors 1..5, every copy two edges away. *)
  let star = Builders.star ~leaves:5 ~profile:(Builders.Uniform 1) in
  Alcotest.(check int) "star" 2 (server star ~leaf:1 [ 5; 3; 2; 4 ]);
  (* Balanced binary tree: a processor's sibling and the root bus are
     both two edges away. *)
  let bal = Builders.balanced ~arity:2 ~height:2 ~profile:(Builders.Uniform 1) in
  let r = Tree.rooting bal in
  let leaf = List.hd (Tree.leaves bal) in
  let sibling =
    List.find
      (fun l -> l <> leaf && r.Tree.parent.(l) = r.Tree.parent.(leaf))
      (Tree.leaves bal)
  in
  tie "root bus vs sibling" bal ~leaf r.Tree.root sibling;
  (* Caterpillar: the processors on the neighbouring spine buses. *)
  let cat =
    Builders.caterpillar ~spine:5 ~leaves_per_bus:1
      ~profile:(Builders.Uniform 1)
  in
  let leaves = Tree.leaves_array cat in
  let middle = leaves.(Array.length leaves / 2) in
  let d = Tree_oracle.path_length cat middle in
  (match
     Array.to_list leaves
     |> List.filter (fun l -> l <> middle)
     |> List.sort (fun a b -> compare (d a, a) (d b, b))
   with
  | a :: b :: _ when d a = d b -> tie "caterpillar" cat ~leaf:middle a b
  | _ -> Alcotest.fail "caterpillar instance has no equidistant pair");
  (* Path: the middle bus sits between two copies one edge away, and
     between the two processors two edges away. *)
  let path = path_tree ~buses:3 in
  let fl = Flat.of_tree path in
  let nearest nodes =
    let got = ref (-1, -1) in
    Flat.iter_nearest fl (Flat.Scratch.create fl)
      ~nodes:(fun mark -> List.iter mark nodes)
      ~targets:(fun visit -> visit 2)
      (fun _ c d -> got := (c, d));
    !got
  in
  Alcotest.(check (pair int int)) "path, bus copies" (1, 1) (nearest [ 3; 1 ]);
  Alcotest.(check (pair int int)) "path, processor copies" (0, 2)
    (nearest [ 4; 0 ])

(* {1 Routed through the kernel} *)

let prop_nearest_matches_oracle seed =
  let prng = Prng.create seed in
  let tree = shape prng in
  let w = sparse_workload prng tree in
  let copies = random_copies ~leaves_only:(Prng.bool prng) prng w in
  let p = Placement.nearest w ~copies in
  p = oracle w ~copies && Placement.validate w p = Ok ()

(* The same state as a sequence of [add_copy]s: servers, loads and copy
   sets right after construction, and then under a shared random delta
   sequence — any difference in the per-leaf server distances or the
   per-edge copy counts would surface as a different defection or
   Steiner load. *)
let prop_of_copies_matches_add_copy seed =
  let prng = Prng.create seed in
  let tree = shape prng in
  let w = sparse_workload prng tree in
  let copies = random_copies prng w in
  let bulk = Loads.of_copies w copies in
  let stepwise = Loads.create w in
  Array.iteri
    (fun obj cs ->
      List.iter (fun c -> Loads.add_copy stepwise ~obj c) (List.sort_uniq compare cs))
    copies;
  let n = Tree.n tree in
  let same () =
    Loads.edge_loads bulk = Loads.edge_loads stepwise
    && Loads.snapshot bulk = Loads.snapshot stepwise
    && List.for_all
         (fun obj ->
           Loads.copies bulk ~obj = Loads.copies stepwise ~obj
           && List.for_all
                (fun v ->
                  Loads.server bulk ~obj v = Loads.server stepwise ~obj v
                  && Loads.nearest_copy bulk ~obj v
                     = Loads.nearest_copy stepwise ~obj v)
                (List.init n Fun.id))
         (List.init (Workload.num_objects w) Fun.id)
  in
  let ok = ref (same () && Loads.snapshot bulk = oracle w ~copies) in
  for _ = 1 to 12 do
    let obj = Prng.int prng (Workload.num_objects w) in
    let v = Prng.int prng n in
    let apply eng =
      if Loads.has_copy eng ~obj v then begin
        if Loads.num_copies eng ~obj > 1 then Loads.remove_copy eng ~obj v
      end
      else Loads.add_copy eng ~obj v
    in
    apply bulk;
    apply stepwise;
    ok := !ok && same ()
  done;
  !ok

let prop_streamed_nibble_bound seed =
  let prng = Prng.create seed in
  let tree = shape prng in
  let w =
    if Prng.bool prng then sparse_workload prng tree
    else Helpers.random_workload prng tree
  in
  Lower_bounds.nibble w = Placement.congestion w (Nibble.placement w)

let suite =
  [
    Helpers.qt ~count:80 "kernel matches the exhaustive scan" Helpers.seed_arb
      prop_kernel_matches_scan;
    Helpers.tc "kernel visits targets in order" test_kernel_visits_targets_in_order;
    Helpers.tc "equidistant copies go to the lowest id" test_equidistant_lowest_id;
    Helpers.qt ~count:80 "Placement.nearest matches the quadratic oracle"
      Helpers.seed_arb prop_nearest_matches_oracle;
    Helpers.qt ~count:60 "Loads.of_copies equals a sequence of add_copy"
      Helpers.seed_arb prop_of_copies_matches_add_copy;
    Helpers.qt ~count:60 "streamed nibble bound equals the placement's congestion"
      Helpers.seed_arb prop_streamed_nibble_bound;
  ]
