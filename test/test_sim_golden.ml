(* Golden outcomes for [Sim.run]: the per-hop injection order decides
   which hops the scheduler serves first, so makespan and completion pin
   the unicast path order and the multicast BFS order as well as the
   traffic. Each case is a small tree with multi-copy writes (one copy on
   a bus, so some broadcasts start mid-tree), run under every policy with
   and without a link model. *)

module Tree = Hbn_tree.Tree
module Builders = Hbn_tree.Builders
module Workload = Hbn_workload.Workload
module Generators = Hbn_workload.Generators
module Placement = Hbn_placement.Placement
module Sim = Hbn_sim.Sim
module Link = Hbn_event.Link
module Prng = Hbn_prng.Prng

let trees () =
  [
    ("star", Builders.star ~leaves:6 ~profile:(Builders.Uniform 2));
    ( "caterpillar",
      Builders.caterpillar ~spine:4 ~leaves_per_bus:2
        ~profile:(Builders.Uniform 1) );
    ( "random",
      Builders.random ~prng:(Prng.create 5) ~buses:5 ~leaves:9
        ~profile:(Builders.Scaled_by_subtree 1) );
  ]

(* Object [x] keeps copies on three spread leaves; object 0 also keeps
   one on the deepest bus, so writes near it broadcast both down and up. *)
let placement tree w =
  let leaves = Tree.leaves_array tree in
  let nl = Array.length leaves in
  let r = Tree.rooting tree in
  let deep_bus =
    List.fold_left
      (fun best b -> if r.Tree.depth.(b) > r.Tree.depth.(best) then b else best)
      (List.hd (Tree.buses tree))
      (Tree.buses tree)
  in
  let copies =
    Array.init (Workload.num_objects w) (fun x ->
        let picks =
          [ leaves.(x); leaves.((nl / 2) + x); leaves.(nl - 1 - x) ]
        in
        List.sort_uniq compare (if x = 0 then deep_bus :: picks else picks))
  in
  Placement.nearest w ~copies

let policies =
  [ ("fifo", Sim.Fifo); ("rr", Sim.Round_robin); ("rev", Sim.Reversed) ]

let links = [ ("sync", None); ("link", Some "1:2,0.5:inf") ]

let fingerprint (o : Sim.outcome) =
  Printf.sprintf "makespan=%d completion=%h dilation=%d transmissions=%d traffic=%s"
    o.Sim.makespan o.Sim.completion o.Sim.max_dilation o.Sim.transmissions
    (String.concat "," (Array.to_list (Array.map string_of_int o.Sim.edge_traffic)))

let cases () =
  List.concat_map
    (fun (tname, tree) ->
      let w =
        Generators.uniform ~prng:(Prng.create 17) tree ~objects:3 ~max_rate:3
      in
      let p = placement tree w in
      List.concat_map
        (fun (pname, policy) ->
          List.map
            (fun (lname, spec) ->
              let link =
                Option.map
                  (fun s ->
                    match Link.of_spec s with
                    | Ok c -> c
                    | Error e -> failwith e)
                  spec
              in
              ( Printf.sprintf "%s/%s/%s" tname pname lname,
                fingerprint (Sim.run ~policy ?link w p) ))
            links)
        policies)
    (trees ())

(* Reference values; any change to the hop order moves some of them. *)
let golden =
  [
    ("star/fifo/sync",
     "makespan=35 completion=0x1.2p+5 dilation=4 transmissions=126 traffic=15,31,21,21,19,19");
    ("star/fifo/link",
     "makespan=32 completion=0x1.0cp+5 dilation=4 transmissions=126 traffic=15,31,21,21,19,19");
    ("star/rr/sync",
     "makespan=38 completion=0x1.38p+5 dilation=4 transmissions=126 traffic=15,31,21,21,19,19");
    ("star/rr/link",
     "makespan=33 completion=0x1.14p+5 dilation=4 transmissions=126 traffic=15,31,21,21,19,19");
    ("star/rev/sync",
     "makespan=36 completion=0x1.28p+5 dilation=4 transmissions=126 traffic=15,31,21,21,19,19");
    ("star/rev/link",
     "makespan=34 completion=0x1.24p+5 dilation=4 transmissions=126 traffic=15,31,21,21,19,19");
    ("caterpillar/fifo/sync",
     "makespan=63 completion=0x1p+6 dilation=8 transmissions=310 traffic=22,35,39,28,19,39,6,26,37,26,33");
    ("caterpillar/fifo/link",
     "makespan=64 completion=0x1.02p+6 dilation=8 transmissions=310 traffic=22,35,39,28,19,39,6,26,37,26,33");
    ("caterpillar/rr/sync",
     "makespan=64 completion=0x1.04p+6 dilation=8 transmissions=310 traffic=22,35,39,28,19,39,6,26,37,26,33");
    ("caterpillar/rr/link",
     "makespan=64 completion=0x1.02p+6 dilation=8 transmissions=310 traffic=22,35,39,28,19,39,6,26,37,26,33");
    ("caterpillar/rev/sync",
     "makespan=65 completion=0x1.08p+6 dilation=8 transmissions=310 traffic=22,35,39,28,19,39,6,26,37,26,33");
    ("caterpillar/rev/link",
     "makespan=64 completion=0x1.02p+6 dilation=8 transmissions=310 traffic=22,35,39,28,19,39,6,26,37,26,33");
    ("random/fifo/sync",
     "makespan=43 completion=0x1.6p+5 dilation=8 transmissions=387 traffic=22,22,26,22,21,5,40,25,39,29,38,45,53");
    ("random/fifo/link",
     "makespan=45 completion=0x1.6cp+5 dilation=8 transmissions=387 traffic=22,22,26,22,21,5,40,25,39,29,38,45,53");
    ("random/rr/sync",
     "makespan=43 completion=0x1.6p+5 dilation=8 transmissions=387 traffic=22,22,26,22,21,5,40,25,39,29,38,45,53");
    ("random/rr/link",
     "makespan=44 completion=0x1.6cp+5 dilation=8 transmissions=387 traffic=22,22,26,22,21,5,40,25,39,29,38,45,53");
    ("random/rev/sync",
     "makespan=43 completion=0x1.6p+5 dilation=8 transmissions=387 traffic=22,22,26,22,21,5,40,25,39,29,38,45,53");
    ("random/rev/link",
     "makespan=43 completion=0x1.5cp+5 dilation=8 transmissions=387 traffic=22,22,26,22,21,5,40,25,39,29,38,45,53");
  ]

let test_golden () =
  let got = cases () in
  Alcotest.(check int) "case count" (List.length golden) (List.length got);
  List.iter2
    (fun (name, want) (gname, have) ->
      Alcotest.(check string) "case" name gname;
      Alcotest.(check string) name want have)
    golden got

let suite = [ Helpers.tc "outcomes pinned across policies and links" test_golden ]
