module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement
module Trace = Hbn_obs.Trace

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

let check_valid w (res : Strategy.result) =
  let tree = Workload.tree w in
  let* () = Placement.validate w res.Strategy.nibble in
  let* () = Placement.validate w res.Strategy.modified in
  let* () = Placement.validate w res.Strategy.placement in
  if Placement.leaf_only tree res.Strategy.placement then Ok ()
  else Error "final placement stores a copy on a bus"

let check_observation_3_2 w (res : Strategy.result) =
  let per_copy =
    List.fold_left
      (fun acc c ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if c.Copy.kappa > 0 then
            if c.Copy.served < c.Copy.kappa then
              Error
                (Printf.sprintf "copy#%d serves %d < kappa=%d" c.Copy.id
                   c.Copy.served c.Copy.kappa)
            else if c.Copy.served > 2 * c.Copy.kappa then
              Error
                (Printf.sprintf "copy#%d serves %d > 2*kappa=%d" c.Copy.id
                   c.Copy.served (2 * c.Copy.kappa))
            else Ok ()
          else Ok ())
      (Ok ()) res.Strategy.copies
  in
  let* () = per_copy in
  (* One scratch and one pair of per-edge buffers serve every object. *)
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let scratch = Flat.Scratch.create fl in
  let m = max 1 (Tree.num_edges tree) in
  let nib = Array.make m 0 and del = Array.make m 0 in
  let object_loads (p : Placement.t) obj loads =
    Array.fill loads 0 m 0;
    Placement.iter_object_load_components_scratch fl scratch p.(obj)
      (fun e _component amount -> loads.(e) <- loads.(e) + amount)
  in
  let rec per_object obj =
    if obj >= Workload.num_objects w then Ok ()
    else begin
      object_loads res.Strategy.nibble obj nib;
      object_loads res.Strategy.modified obj del;
      let bad = ref None in
      Array.iteri
        (fun e l ->
          if l > 2 * nib.(e) && !bad = None then
            bad :=
              Some
                (Printf.sprintf
                   "object %d edge %d: modified load %d > 2*nibble %d" obj e l
                   nib.(e)))
        del;
      match !bad with Some msg -> Error msg | None -> per_object (obj + 1)
    end
  in
  per_object 0

let final_and_nibble_loads w (res : Strategy.result) =
  let final = Placement.evaluate w res.Strategy.placement in
  let nib = Placement.evaluate w res.Strategy.nibble in
  (final, nib)

let lemma_4_5 ~final ~nib ~tau =
  let bad = ref None in
  Array.iteri
    (fun e l ->
      let bound = (4 * nib.Placement.edge_loads.(e)) + tau in
      if l > bound && !bad = None then
        bad :=
          Some
            (Printf.sprintf "edge %d: load %d > 4*Lnib + tau = %d" e l bound))
    final.Placement.edge_loads;
  match !bad with Some msg -> Error msg | None -> Ok ()

let lemma_4_6 tree ~final ~nib ~tau =
  let bad = ref None in
  List.iter
    (fun b ->
      (* Bus loads are stored doubled to stay integral; the bound doubles
         accordingly: 2·L(v) <= 4·(2·Lnib(v)) / 2 ... i.e. compare
         loads2 against 4*nib_loads2 + 2*tau. *)
      let bound = (4 * nib.Placement.bus_loads2.(b)) + (2 * tau) in
      if final.Placement.bus_loads2.(b) > bound && !bad = None then
        bad :=
          Some
            (Printf.sprintf "bus %d: 2*load %d > 2*(4*Lnib(v) + tau) = %d" b
               final.Placement.bus_loads2.(b) bound))
    (Tree.buses tree);
  match !bad with Some msg -> Error msg | None -> Ok ()

let check_lemma_4_5 w res =
  let final, nib = final_and_nibble_loads w res in
  lemma_4_5 ~final ~nib ~tau:res.Strategy.tau_max

let check_lemma_4_6 w res =
  let final, nib = final_and_nibble_loads w res in
  lemma_4_6 (Workload.tree w) ~final ~nib ~tau:res.Strategy.tau_max

let check_theorem_4_3 w res ~optimum =
  let c = Placement.congestion w res.Strategy.placement in
  if c <= (7. *. optimum) +. 1e-9 then Ok ()
  else
    Error
      (Printf.sprintf "congestion %.6f exceeds 7 * optimum (%.6f)" c
         (7. *. optimum))

let check_all w res =
  let sp = Trace.span "certificates.check_all" in
  let verdict =
    let* () = check_valid w res in
    let* () = check_observation_3_2 w res in
    (* Lemmas 4.5 and 4.6 share one evaluation of both placements. *)
    let final, nib = final_and_nibble_loads w res in
    let tau = res.Strategy.tau_max in
    let* () = lemma_4_5 ~final ~nib ~tau in
    lemma_4_6 (Workload.tree w) ~final ~nib ~tau
  in
  Trace.finish sp;
  verdict

let max_edge_slack w res =
  let final, nib = final_and_nibble_loads w res in
  let tau = res.Strategy.tau_max in
  let best = ref 0. in
  Array.iteri
    (fun e l ->
      let bound = (4 * nib.Placement.edge_loads.(e)) + tau in
      if bound > 0 then
        best := max !best (float_of_int l /. float_of_int bound))
    final.Placement.edge_loads;
  !best
