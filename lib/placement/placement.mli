(** Placements of shared data objects and their induced loads.

    A placement fixes, per object [x], the set [P_x] of nodes holding
    copies and a (possibly split) reference-copy assignment: each
    processor's requests to [x] are served by nodes of [P_x]. The paper's
    model assigns one reference copy [c(P, x)] per processor; the
    extended-nibble strategy may split one processor's requests between
    co-located clones that the mapping step then moves apart, so the
    representation allows one processor's requests to be divided among
    servers ({!is_strict} tells the two cases apart, {!to_strict} collapses
    a split assignment).

    Loads follow Section 1.1 verbatim:
    - a read by [P] loads every edge on the path [P → c(P,x)] by 1;
    - a write by [P] loads the path [P → c(P,x)] and every edge of the
      Steiner tree connecting [P_x] by 1;
    - the load of a bus is half the sum of the loads of its incident
      edges; relative load divides by bandwidth; congestion is the maximum
      relative load over all edges and buses. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload

type assignment = {
  leaf : int;  (** the requesting processor *)
  server : int;  (** node of [P_x] serving these requests *)
  reads : int;
  writes : int;
}

type obj_placement = {
  copies : int list;  (** distinct nodes holding copies of the object *)
  assigns : assignment list;
}

type t = obj_placement array
(** Indexed by object. *)

(** {1 Constructors} *)

val nearest : ?exec:Hbn_exec.Exec.t -> Workload.t -> copies:int list array -> t
(** [nearest w ~copies] assigns every requesting processor to its closest
    copy (ties to the lowest node id) — the reference-copy rule used by
    the nibble strategy. Raises [Invalid_argument] if an object with
    requests has no copies. [exec] fans the per-object assignment out
    over domains; results are identical at any job count. *)

val nearest_object :
  ?scratch:Hbn_tree.Flat.Scratch.t ->
  Workload.t ->
  obj:int ->
  copies:int list ->
  obj_placement
(** One object's nearest-copy assignment — the per-object unit {!nearest}
    maps over, one {!Hbn_tree.Flat.iter_nearest} pass: O(n) whatever the
    numbers of copies and requesting leaves. Safe to call concurrently
    once [Workload.flat] has been forced, as long as each domain passes
    its own [scratch] (a fresh one is allocated when omitted). *)

val single : Workload.t -> (int * int) list -> t
(** [single w obj_to_node] places exactly one copy per object as listed
    (every object of [w] must appear exactly once) and assigns all
    requests to it. *)

val full_replication : Workload.t -> t
(** One copy on every processor; every processor serves itself (writes
    still pay the full Steiner tree). *)

(** {1 Inspection} *)

val copies : t -> obj:int -> int list

val is_strict : t -> bool
(** No processor's requests for one object are split between servers. *)

val to_strict : t -> t
(** Reassigns each (processor, object) wholly to the server that handled
    the majority of its requests. *)

val leaf_only : Tree.t -> t -> bool
(** All copies are on processors — required of hierarchical bus networks. *)

val validate : Workload.t -> t -> (unit, string) result
(** Checks that assignments exactly cover the workload's frequencies, that
    servers hold copies, and that copy lists are duplicate-free. Never
    raises: out-of-range nodes and object counts come back as [Error]
    too. O(objects · n + copies · log copies + assignments). *)

(** {1 Loads and congestion} *)

type congestion = {
  value : float;  (** the congestion [C] *)
  edge_loads : int array;  (** absolute load per edge *)
  bus_loads2 : int array;  (** per node, twice the bus load (integral) *)
  bottleneck : [ `Edge of int | `Bus of int ];
}

val edge_loads : ?exec:Hbn_exec.Exec.t -> Workload.t -> t -> int array
(** Absolute load per edge, summed over objects. With a parallel [exec]
    the per-object contributions are computed concurrently and merged by
    summation — bit-identical to the sequential result. *)

val object_edge_loads : Workload.t -> t -> obj:int -> int array
(** Load per edge induced by a single object. *)

(** The three ways Section 1.1 lets an object load an edge: read traffic
    along the path [P → c(P,x)], write traffic along the same path, and
    the write broadcast over the Steiner tree of the copy set [P_x].
    Attribution tables ({!Hbn_obs.Attribution}) decompose every edge's
    absolute load into [(object, component)] cells over exactly these. *)
type component = Read_path | Write_path | Write_steiner

val component_name : component -> string
(** ["read_path"], ["write_path"], ["write_steiner"] — the spelling used
    by JSONL [attribution] events and [hbn_cli explain --format json]. *)

val component_of_name : string -> component option

val iter_object_load_components :
  Tree.t -> obj_placement -> (int -> component -> int -> unit) -> unit
(** [iter_object_load_components tree op f] reports every elementary load
    contribution of one object as [f edge component amount]: for each
    assignment, the read and write request traffic along the leaf→server
    path (as separate [Read_path]/[Write_path] calls), then the write
    broadcast over the copy set's Steiner tree ([Write_steiner], with the
    object's total writes on every Steiner edge). Zero-amount components
    are skipped. This is the single source of truth for the accounting
    definitions: {!iter_object_loads}, {!edge_loads},
    {!object_edge_loads}, the incremental engine ([Hbn_loads.Loads]) and
    attribution tables all agree with it by construction. *)

val iter_object_load_components_scratch :
  Hbn_tree.Flat.t ->
  Hbn_tree.Flat.Scratch.t ->
  obj_placement ->
  (int -> component -> int -> unit) ->
  unit
(** {!iter_object_load_components} over the flat tree kernels with a
    caller-owned scratch — the zero-allocation form hot loops use
    (same calls, same order; the scratch must belong to the calling
    domain). *)

val iter_object_loads : Tree.t -> obj_placement -> (int -> int -> unit) -> unit
(** [iter_object_loads tree op f] is {!iter_object_load_components} with
    the component dropped: callers that only accumulate per-edge sums
    (which is all of them) see identical totals. *)

val evaluate : ?exec:Hbn_exec.Exec.t -> Workload.t -> t -> congestion
(** Full congestion accounting, inside a [placement.evaluate] trace
    span. *)

val congestion : ?exec:Hbn_exec.Exec.t -> Workload.t -> t -> float
(** [= (evaluate w p).value], without the span: it is the per-proposal
    call of search loops, where a span would cost more than it shows. *)

val total_load : Workload.t -> t -> int
(** Sum of all edge loads (the "total communication load" objective the
    paper contrasts congestion with). *)

val nearest_congestion :
  ?scratch:Hbn_tree.Flat.Scratch.t ->
  Workload.t ->
  copies:(int -> int list) ->
  float
(** [nearest_congestion w ~copies] is the congestion of every object
    [obj] served from [copies obj] by nearest-copy assignment, streamed
    one object at a time into one per-edge array: O(objects · n) time,
    O(n) space. An object given no copies contributes nothing, as in a
    [Hbn_loads.Loads] engine, so the value is bit-identical to
    [Loads.congestion (Loads.of_copies w copies)]. [copies] is called
    once per object, in ascending order, before that object's assignment
    reuses [scratch] — a caller may compute copies with the same
    scratch. *)

val congestion_of_edge_loads : Tree.t -> int array -> congestion
(** Recomputes bus loads and congestion from raw edge loads (used by the
    exact solver which manipulates edge-load vectors directly). *)

val to_dot : Tree.t -> t -> string
(** Graphviz rendering of the network with each processor labeled by the
    objects it holds copies of (buses as boxes, as in {!Tree.to_dot}). *)

val pp : Format.formatter -> t -> unit
