(* What a serving epoch builds instead of whole engines and live tables,
   against the code it replaced, kept here as the oracles:
   [Placement.nearest_congestion] against [Loads.congestion] of a fresh
   [Loads.of_copies]; [Attribution.hot_objects] against ranking a
   one-shot attribution table's hashtable cells; and [Telemetry]'s
   bounded top-k cut against sorting every touched edge. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Prng = Hbn_prng.Prng
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Loads = Hbn_loads.Loads
module Attribution = Hbn_obs.Attribution
module Telemetry = Hbn_obs.Telemetry

(* {1 Instances} *)

(* Single leaf, star, path, caterpillar, balanced or random, with mixed
   bandwidths so edge and bus sites interleave in the hotspot ranking. *)
let shape prng =
  let profile = Helpers.profile_of prng in
  match Prng.int prng 6 with
  | 0 -> Test_nearest.single_leaf ()
  | 1 -> Builders.star ~leaves:(Prng.int_in prng 2 9) ~profile
  | 2 -> Test_nearest.path_tree ~buses:(Prng.int_in prng 1 6)
  | 3 ->
    Builders.caterpillar ~spine:(Prng.int_in prng 4 14)
      ~leaves_per_bus:(Prng.int_in prng 1 2) ~profile
  | 4 ->
    Builders.balanced ~arity:(Prng.int_in prng 2 3)
      ~height:(Prng.int_in prng 1 3) ~profile
  | _ -> Helpers.random_tree prng

(* Every object is one of: no requests, write-only, read-only, or mixed
   sparse traffic. *)
let workload prng tree =
  let w = Workload.empty tree ~objects:(Prng.int_in prng 1 6) in
  for obj = 0 to Workload.num_objects w - 1 do
    let mode = Prng.int prng 4 in
    if mode > 0 then
      List.iter
        (fun leaf ->
          if Prng.int prng 3 > 0 then begin
            if mode <> 1 then Workload.set_read w ~obj leaf (Prng.int prng 6);
            if mode <> 2 then Workload.set_write w ~obj leaf (Prng.int prng 4)
          end)
        (Tree.leaves tree)
  done;
  w

(* Zero to a handful of copies per object, duplicates and buses
   included. *)
let copies prng w =
  let n = Tree.n (Workload.tree w) in
  Array.init (Workload.num_objects w) (fun _ ->
      List.init (Prng.int prng 5) (fun _ -> Prng.int prng n))

(* {1 The nearest-copy congestion evaluator} *)

let prop_evaluator_matches_engine seed =
  let prng = Prng.create seed in
  let w = workload prng (shape prng) in
  let cs = copies prng w in
  let engine = Loads.congestion (Loads.of_copies w cs) in
  Placement.nearest_congestion w ~copies:(Array.get cs) = engine

(* {1 Hot objects} *)

(* The oracle: contributions summed per object over the hottest [2k]
   sites of a one-shot attribution table, largest total first, ties to
   the lower object id. *)
let oracle_hot_objects eng ~k =
  let attr = Attribution.of_loads eng in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (site, _) ->
      let contribs =
        match site with
        | `Edge edge -> Attribution.edge_contributions attr ~edge
        | `Bus bus -> Attribution.bus_contributions attr ~bus
      in
      List.iter
        (fun (c : Attribution.contribution) ->
          let obj = c.Attribution.obj in
          let prev = try Hashtbl.find tbl obj with Not_found -> 0 in
          Hashtbl.replace tbl obj (prev + c.Attribution.amount))
        contribs)
    (Attribution.hotspots attr ~k:(2 * k));
  Hashtbl.fold (fun o a acc -> (o, a) :: acc) tbl []
  |> List.sort (fun (o1, a1) (o2, a2) ->
         if a1 <> a2 then compare a2 a1 else compare o1 o2)
  |> List.filteri (fun i _ -> i < k)
  |> List.map fst |> Array.of_list

(* One random add, move or remove on any node — removing an object's
   last copy only when it has no requests — or a requesting leaf
   pointed at a copy other than its nearest. *)
let random_delta prng w eng =
  let n = Tree.n (Workload.tree w) in
  let obj = Prng.int prng (Workload.num_objects w) in
  let v = Prng.int prng n in
  let held = Loads.has_copy eng ~obj v in
  let count = Loads.num_copies eng ~obj in
  let pick_copy () = Prng.pick prng (Loads.copies eng ~obj) in
  match Prng.int prng 4 with
  | 0 -> if not held then Loads.add_copy eng ~obj v
  | 1 ->
    if count > 0 && not held then
      Loads.move_copy eng ~obj ~src:(pick_copy ()) ~dst:v
  | 2 ->
    if held && (count > 1 || Workload.requesting_leaves w ~obj = []) then
      Loads.remove_copy eng ~obj v
  | _ -> (
    match Workload.requesting_leaves w ~obj with
    | _ :: _ as ls when count > 0 ->
      Loads.reassign eng ~obj ~leaf:(Prng.pick prng ls)
        ~server:(pick_copy ())
    | _ -> ())

let prop_hot_objects_match_oracle seed =
  let prng = Prng.create seed in
  let w = workload prng (shape prng) in
  let eng = Loads.of_copies w (copies prng w) in
  let agree () =
    let k = Prng.int_in prng 1 (Workload.num_objects w + 2) in
    Attribution.hot_objects eng ~k = oracle_hot_objects eng ~k
  in
  let ok = ref (agree ()) in
  for _ = 1 to 12 do
    if Prng.int prng 4 = 0 then begin
      let cp = Loads.checkpoint eng in
      for _ = 1 to Prng.int_in prng 1 4 do
        random_delta prng w eng
      done;
      ok := !ok && agree ();
      Loads.rollback eng cp
    end
    else random_delta prng w eng;
    ok := !ok && agree ()
  done;
  !ok

(* {1 The telemetry top-k cut} *)

(* The oracle: every touched edge as an (edge, count) pair, sorted by
   count descending then edge id, cut at [k], the rest summed. *)
let oracle_cut k counts =
  let pairs =
    Array.to_list (Array.mapi (fun e c -> (e, c)) counts)
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort (fun (e1, c1) (e2, c2) ->
           if c1 <> c2 then compare c2 c1 else compare e1 e2)
  in
  let top = List.filteri (fun i _ -> i < k) pairs in
  let rest = List.filteri (fun i _ -> i >= k) pairs in
  (top, List.fold_left (fun s (_, c) -> s + c) 0 rest)

(* Rounds of random sends, with ties in the counts; every exact
   per-round point must carry the oracle's cut. *)
let prop_round_cut_matches_sort seed =
  let prng = Prng.create seed in
  let num_edges = Prng.int_in prng 1 30 in
  let k = Prng.int_in prng 1 6 in
  let rounds = Prng.int_in prng 1 8 in
  let tel = Telemetry.create ~top_k:k ~capacity:64 ~num_edges () in
  let expected =
    List.init rounds (fun round ->
        let counts = Array.make num_edges 0 in
        Telemetry.begin_round tel ~round;
        for _ = 1 to Prng.int prng 40 do
          let edge = Prng.int prng num_edges in
          let count = Prng.int prng 3 in
          counts.(edge) <- counts.(edge) + count;
          Telemetry.send_many tel ~edge ~count ~bytes:count
        done;
        Telemetry.end_round tel ~live_nodes:1;
        oracle_cut k counts)
  in
  List.map
    (fun p -> (p.Telemetry.edges, p.Telemetry.other_edges))
    (Telemetry.points tel)
  = expected

let suite =
  [
    Helpers.qt ~count:150 "nearest_congestion equals Loads.of_copies"
      Helpers.seed_arb prop_evaluator_matches_engine;
    Helpers.qt ~count:100 "hot_objects equals the attribution-table ranking"
      Helpers.seed_arb prop_hot_objects_match_oracle;
    Helpers.qt ~count:150 "end_round top-k equals a full sort" Helpers.seed_arb
      prop_round_cut_matches_sort;
  ]
