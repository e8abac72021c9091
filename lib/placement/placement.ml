module Tree = Hbn_tree.Tree
module Flat = Hbn_tree.Flat
module Workload = Hbn_workload.Workload
module Exec = Hbn_exec.Exec
module Trace = Hbn_trace.Trace

type assignment = { leaf : int; server : int; reads : int; writes : int }

type obj_placement = { copies : int list; assigns : assignment list }

type t = obj_placement array

let dedup_sorted xs = List.sort_uniq compare xs

let nearest_object ?scratch w ~obj ~copies =
  let fl = Flat.of_tree (Workload.tree w) in
  let wf = Workload.flat w in
  let cs = dedup_sorted copies in
  let lo = wf.Workload.Flat.req_off.(obj)
  and hi = wf.Workload.Flat.req_off.(obj + 1) in
  if hi > lo && cs = [] then
    invalid_arg "Placement.nearest: requests but no copies";
  let assigns = ref [] in
  if hi > lo then begin
    let scratch =
      match scratch with Some s -> s | None -> Flat.Scratch.create fl
    in
    let req_leaf = wf.Workload.Flat.req_leaf in
    (* Descending, so the consed list comes out in ascending leaf order. *)
    Flat.iter_nearest fl scratch
      ~nodes:(fun mark -> List.iter mark cs)
      ~targets:(fun visit ->
        for i = hi - 1 downto lo do
          visit req_leaf.(i)
        done)
      (fun leaf server _dist ->
        assigns :=
          {
            leaf;
            server;
            reads = Workload.reads w ~obj leaf;
            writes = Workload.writes w ~obj leaf;
          }
          :: !assigns)
  end;
  { copies = cs; assigns = !assigns }

let nearest ?(exec = Exec.sequential) w ~copies =
  ignore (Workload.flat w);
  let fl = Flat.of_tree (Workload.tree w) in
  let scratches =
    Array.init (Exec.jobs exec) (fun _ -> Flat.Scratch.create fl)
  in
  Exec.map_chunked exec (Workload.num_objects w) (fun obj ->
      nearest_object
        ~scratch:scratches.(Exec.current_worker ())
        w ~obj ~copies:copies.(obj))

let single w obj_to_node =
  let n = Workload.num_objects w in
  let copies = Array.make n [] in
  List.iter
    (fun (obj, node) ->
      if obj < 0 || obj >= n then invalid_arg "Placement.single: bad object";
      if copies.(obj) <> [] then
        invalid_arg "Placement.single: duplicate object";
      copies.(obj) <- [ node ])
    obj_to_node;
  Array.iteri
    (fun obj c ->
      if c = [] && Workload.requesting_leaves w ~obj <> [] then
        invalid_arg "Placement.single: object missing a copy")
    copies;
  nearest w ~copies

let full_replication w =
  let tree = Workload.tree w in
  let all = Tree.leaves tree in
  let copies =
    Array.init (Workload.num_objects w) (fun _ -> all)
  in
  nearest w ~copies

let copies t ~obj = t.(obj).copies

let is_strict t =
  Array.for_all
    (fun op ->
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun a ->
          if Hashtbl.mem seen a.leaf then false
          else begin
            Hashtbl.add seen a.leaf ();
            true
          end)
        op.assigns)
    t

let to_strict t =
  Array.map
    (fun op ->
      let by_leaf = Hashtbl.create 16 in
      List.iter
        (fun a ->
          let prev = try Hashtbl.find by_leaf a.leaf with Not_found -> [] in
          Hashtbl.replace by_leaf a.leaf (a :: prev))
        op.assigns;
      let assigns =
        Hashtbl.fold
          (fun leaf parts acc ->
            let reads = List.fold_left (fun s a -> s + a.reads) 0 parts in
            let writes = List.fold_left (fun s a -> s + a.writes) 0 parts in
            let server =
              (* majority server; ties to the lowest node id *)
              let best = ref (-1) and best_w = ref (-1) in
              List.iter
                (fun a ->
                  let wgt = a.reads + a.writes in
                  if
                    wgt > !best_w
                    || (wgt = !best_w && a.server < !best)
                  then begin
                    best := a.server;
                    best_w := wgt
                  end)
                parts;
              !best
            in
            { leaf; server; reads; writes } :: acc)
          by_leaf []
      in
      { op with assigns = List.sort compare assigns })
    t

let leaf_only tree t =
  Array.for_all
    (fun op -> List.for_all (fun c -> Tree.is_leaf tree c) op.copies)
    t

let validate w t =
  let tree = Workload.tree w in
  let n = Tree.n tree in
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  let in_range v = v >= 0 && v < n in
  if Array.length t <> Workload.num_objects w then
    fail "placement has %d objects, workload %d" (Array.length t)
      (Workload.num_objects w)
  else begin
    (* Per-call buffers: copy membership as stamps (the object id + 1),
       assigned frequencies zeroed again by the check that reads them. *)
    let holds = Array.make n 0 in
    let reads = Array.make n 0 in
    let writes = Array.make n 0 in
    Array.iteri
      (fun obj op ->
        let stamp = obj + 1 in
        if List.length (dedup_sorted op.copies) <> List.length op.copies then
          fail "object %d: duplicate copies" obj;
        List.iter
          (fun c ->
            if in_range c then holds.(c) <- stamp
            else fail "object %d: bad copy node" obj)
          op.copies;
        List.iter
          (fun a ->
            if a.reads < 0 || a.writes < 0 then
              fail "object %d: negative assignment" obj;
            if not (in_range a.server && holds.(a.server) = stamp) then
              fail "object %d: server %d holds no copy" obj a.server;
            if not (in_range a.leaf && Tree.is_leaf tree a.leaf) then
              fail "object %d: requests from non-processor %d" obj a.leaf
            else begin
              reads.(a.leaf) <- reads.(a.leaf) + a.reads;
              writes.(a.leaf) <- writes.(a.leaf) + a.writes
            end)
          op.assigns;
        for v = 0 to n - 1 do
          let hr = if Tree.is_leaf tree v then Workload.reads w ~obj v else 0 in
          let hw = if Tree.is_leaf tree v then Workload.writes w ~obj v else 0 in
          if reads.(v) <> hr then
            fail "object %d: node %d reads %d assigned, %d required" obj v
              reads.(v) hr;
          if writes.(v) <> hw then
            fail "object %d: node %d writes %d assigned, %d required" obj v
              writes.(v) hw;
          reads.(v) <- 0;
          writes.(v) <- 0
        done)
      t
  end;
  match !problem with None -> Ok () | Some msg -> Error msg

type component = Read_path | Write_path | Write_steiner

let component_name = function
  | Read_path -> "read_path"
  | Write_path -> "write_path"
  | Write_steiner -> "write_steiner"

let component_of_name = function
  | "read_path" -> Some Read_path
  | "write_path" -> Some Write_path
  | "write_steiner" -> Some Write_steiner
  | _ -> None

(* The single source of truth for Section 1.1's load accounting: every
   elementary contribution of one object — read and write request traffic
   along leaf→server paths, then the write broadcast over the copies'
   Steiner tree — is reported through [f edge component amount]. The
   from-scratch entry points below, the incremental engine
   ([Hbn_loads.Loads]) and the attribution tables ([Hbn_obs.Attribution])
   all build on this, so they cannot drift apart. *)
let iter_object_load_components_scratch fl scratch op f =
  List.iter
    (fun a ->
      if a.reads + a.writes > 0 && a.leaf <> a.server then
        Flat.iter_path fl scratch a.leaf a.server (fun e ->
            if a.reads > 0 then f e Read_path a.reads;
            if a.writes > 0 then f e Write_path a.writes))
    op.assigns;
  let total_writes = List.fold_left (fun s a -> s + a.writes) 0 op.assigns in
  if total_writes > 0 then
    Flat.iter_steiner fl scratch
      ~nodes:(fun mark -> List.iter mark op.copies)
      (fun e -> f e Write_steiner total_writes)

let iter_object_load_components tree op f =
  let fl = Flat.of_tree tree in
  iter_object_load_components_scratch fl (Flat.Scratch.create fl) op f

let iter_object_loads tree op f =
  iter_object_load_components tree op (fun e _component amount -> f e amount)

let object_edge_loads w t ~obj =
  let tree = Workload.tree w in
  let loads = Array.make (max 1 (Tree.num_edges tree)) 0 in
  iter_object_loads tree t.(obj) (fun e amount ->
      loads.(e) <- loads.(e) + amount);
  loads

let edge_loads ?(exec = Exec.sequential) w t =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let m = max 1 (Tree.num_edges tree) in
  let jobs = Exec.jobs exec in
  if jobs = 1 then begin
    let scratch = Flat.Scratch.create fl in
    let loads = Array.make m 0 in
    Array.iter
      (fun op ->
        iter_object_load_components_scratch fl scratch op
          (fun e _component amount -> loads.(e) <- loads.(e) + amount))
      t;
    loads
  end
  else begin
    (* One accumulator and one scratch per executor slot, summed in slot
       order afterwards — integer addition commutes, so the merged loads
       are identical at any job count or chunk size. *)
    let partial = Array.init jobs (fun _ -> Array.make m 0) in
    let scratches = Array.init jobs (fun _ -> Flat.Scratch.create fl) in
    Exec.iter_chunked exec (Array.length t) (fun obj ->
        let slot = Exec.current_worker () in
        let loads = partial.(slot) in
        iter_object_load_components_scratch fl scratches.(slot) t.(obj)
          (fun e _component amount -> loads.(e) <- loads.(e) + amount));
    let loads = partial.(0) in
    for slot = 1 to jobs - 1 do
      let p = partial.(slot) in
      for e = 0 to m - 1 do
        loads.(e) <- loads.(e) + p.(e)
      done
    done;
    loads
  end

type congestion = {
  value : float;
  edge_loads : int array;
  bus_loads2 : int array;
  bottleneck : [ `Edge of int | `Bus of int ];
}

let congestion_of_edge_loads tree loads =
  let bus_loads2 = Array.make (Tree.n tree) 0 in
  for e = 0 to Tree.num_edges tree - 1 do
    let u, v = Tree.edge_endpoints tree e in
    if not (Tree.is_leaf tree u) then
      bus_loads2.(u) <- bus_loads2.(u) + loads.(e);
    if not (Tree.is_leaf tree v) then
      bus_loads2.(v) <- bus_loads2.(v) + loads.(e)
  done;
  let best = ref 0. and arg = ref (`Edge 0) in
  for e = 0 to Tree.num_edges tree - 1 do
    let rel = float_of_int loads.(e) /. float_of_int (Tree.edge_bandwidth tree e) in
    if rel > !best then begin
      best := rel;
      arg := `Edge e
    end
  done;
  List.iter
    (fun b ->
      let rel =
        float_of_int bus_loads2.(b)
        /. (2. *. float_of_int (Tree.bus_bandwidth tree b))
      in
      if rel > !best then begin
        best := rel;
        arg := `Bus b
      end)
    (Tree.buses tree);
  { value = !best; edge_loads = loads; bus_loads2; bottleneck = !arg }

let evaluation ?exec w t =
  congestion_of_edge_loads (Workload.tree w) (edge_loads ?exec w t)

let evaluate ?exec w t =
  let sp = Trace.span "placement.evaluate" in
  let c = evaluation ?exec w t in
  Trace.finish sp;
  c

(* No span: baselines call this once per proposal. *)
let congestion ?exec w t = (evaluation ?exec w t).value

let total_load w t = Array.fold_left ( + ) 0 (edge_loads w t)

(* Streams one object at a time — its copies, its nearest-copy
   assignment, its loads — into a single per-edge array, so no
   placement or engine is ever held whole. Integer sums, hence the same
   float as [Loads.congestion (Loads.of_copies w copies)]. *)
let nearest_congestion ?scratch w ~copies =
  let tree = Workload.tree w in
  let fl = Flat.of_tree tree in
  let scratch =
    match scratch with Some s -> s | None -> Flat.Scratch.create fl
  in
  let loads = Array.make (max 1 (Tree.num_edges tree)) 0 in
  for obj = 0 to Workload.num_objects w - 1 do
    match copies obj with
    | [] -> ()
    | cs ->
      iter_object_load_components_scratch fl scratch
        (nearest_object ~scratch w ~obj ~copies:cs)
        (fun e _component amount -> loads.(e) <- loads.(e) + amount)
  done;
  (congestion_of_edge_loads tree loads).value

let to_dot tree t =
  let held = Array.make (Tree.n tree) [] in
  Array.iteri
    (fun obj op ->
      List.iter (fun v -> held.(v) <- obj :: held.(v)) op.copies)
    t;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "graph hbn_placement {\n";
  for v = 0 to Tree.n tree - 1 do
    if Tree.is_leaf tree v then begin
      let label =
        match List.rev held.(v) with
        | [] -> Printf.sprintf "P%d" v
        | objs ->
          Printf.sprintf "P%d\\nx%s" v
            (String.concat ",x" (List.map string_of_int objs))
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle,label=\"%s\"];\n" v label)
    end
    else
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=box,label=\"bus %d\"];\n" v v)
  done;
  for e = 0 to Tree.num_edges tree - 1 do
    let u, v = Tree.edge_endpoints tree e in
    Buffer.add_string buf
      (Printf.sprintf "  n%d -- n%d [label=\"%d\"];\n" u v
         (Tree.edge_bandwidth tree e))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>placement of %d objects@," (Array.length t);
  Array.iteri
    (fun obj op ->
      Format.fprintf ppf "  object %d: copies [%s], %d assignment groups@," obj
        (String.concat "; " (List.map string_of_int op.copies))
        (List.length op.assigns))
    t;
  Format.fprintf ppf "@]"
