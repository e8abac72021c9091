(** Incremental load accounting shared by placement, baselines and the
    online layer.

    [Loads.t] is a mutable mirror of one workload's Section 1.1 load
    state: per-edge absolute loads, per-object copy sets and reference
    assignments. The delta operations ({!add_copy}, {!remove_copy},
    {!move_copy}, {!reassign}) update only the affected leaf→server paths
    and Steiner edges — O(height) per touched leaf — instead of
    re-deriving every object's loads from scratch, which turns one
    hill-climb proposal from O(objects · leaves · height) into
    O(height + affected leaves · log n).

    Invariants maintained between operations (see DESIGN.md §8):

    - [loads.(e)] equals [Placement.edge_loads] of {!snapshot};
    - every requesting leaf's server is its nearest copy, ties to the
      lowest node id (exactly [Placement.nearest]'s rule), unless the
      caller overrode it with {!reassign};
    - an edge carries the object's write-broadcast load iff it lies on
      the Steiner tree of the copy set ([0 < below < ncopies] in the
      canonical rooting).

    A {!checkpoint}/{!rollback} pair makes proposals try-then-undo: every
    delta pushes its inverse onto a journal, and rolling back replays the
    journal tail in reverse. The workload must not be mutated while an
    engine built on it is alive. *)

module Tree = Hbn_tree.Tree
module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

(** Plain edge-load accumulation with incrementally maintained bus loads
    — the bottom layer of the engine, also used standalone by the online
    dynamic strategy for its running request loads. *)
module Raw : sig
  type t

  val create : Tree.t -> t
  (** All-zero loads. *)

  val add : t -> int -> int -> unit
  (** [add t e amount] adds [amount] (possibly negative) to edge [e] and
      to the bus loads of its non-processor endpoints. O(1). *)

  val load : t -> int -> int

  val loads : t -> int array
  (** A fresh copy of the per-edge loads. *)

  val total : t -> int

  val congestion_value : t -> float
  (** Maximum relative load over edges and buses — bit-identical to
      [Placement.congestion_of_edge_loads] on {!loads}, without
      allocating. O(n). *)

  val evaluate : t -> Placement.congestion
end

type t

type checkpoint

(** {1 Construction} *)

val create : Workload.t -> t
(** An engine with empty copy sets (every load zero). Objects with
    requests must receive a first copy via {!add_copy} before
    {!snapshot} is meaningful. *)

val of_copies : Workload.t -> int list array -> t
(** [of_copies w copies] builds the engine state for the given per-object
    copy sets with nearest-copy assignments — the incremental counterpart
    of [Placement.nearest w ~copies], and the same state a sequence of
    {!add_copy}s over [create w] reaches. Duplicate nodes in a list are
    collapsed. One [Flat.iter_nearest] pass per object assigns the
    requesting leaves: O(n + copies · height · degree + leaves · height)
    per object. The construction deltas are not recorded in the undo
    journal. *)

(** {1 Delta operations}

    All raise [Invalid_argument] on out-of-range indices, on adding a
    copy a node already holds, on removing a node's missing copy, and on
    removing the last copy of an object that has requests. *)

val add_copy : t -> obj:int -> int -> unit
(** Place a copy on a node. Requesting leaves strictly closer to the new
    copy (or equally close with the new node's id lower) defect to it. *)

val remove_copy : t -> obj:int -> int -> unit
(** Drop a node's copy. Leaves it served are reassigned to their nearest
    remaining copy (ties to the lowest id) via an O(height) query. *)

val move_copy : t -> obj:int -> src:int -> dst:int -> unit
(** [add_copy dst] then [remove_copy src] — the hill climb's "move"
    proposal, safe for single-copy objects because the new copy lands
    before the old one leaves. *)

val reassign : t -> obj:int -> leaf:int -> server:int -> unit
(** Explicitly point a requesting leaf at a (copy-holding) server,
    overriding the nearest-copy rule until a later delta moves it. *)

(** {1 Attribution hook} *)

type hook =
  obj:int -> component:Placement.component -> edge:int -> amount:int -> unit

val set_hook : t -> hook option -> unit
(** [set_hook t (Some h)] makes every subsequent elementary load delta
    call [h ~obj ~component ~edge ~amount] right after it lands in the
    edge-load accumulator: request traffic moved by a (re)assignment as
    separate [Read_path]/[Write_path] deltas per path edge, Steiner
    membership flips as [Write_steiner] deltas. {!rollback} replays its
    journal through the same low-level operations, so the hook also sees
    every undo as the exact inverse deltas — a table folded over the hook
    stays consistent across checkpoint/rollback with no special casing.
    Amounts are never zero. [None] detaches. The hook runs under the
    engine's caller; it must not mutate the engine. *)

(** {1 Checkpoint / rollback} *)

val checkpoint : t -> checkpoint
(** Marks the current journal position. Checkpoints nest. *)

val rollback : t -> checkpoint -> unit
(** Undo every delta applied since the checkpoint, restoring loads,
    copy sets and assignments exactly. Raises [Invalid_argument] if the
    checkpoint is ahead of the journal (e.g. already rolled back). *)

(** {1 Inspection} *)

val workload : t -> Workload.t

val copies : t -> obj:int -> int list
(** Current copy set, ascending (O(n); use {!has_copy}/{!num_copies} on
    hot paths). *)

val has_copy : t -> obj:int -> int -> bool
(** O(1). *)

val num_copies : t -> obj:int -> int
(** O(1). *)

val nearest_copy : t -> obj:int -> int -> (int * int) option
(** [nearest_copy t ~obj v] is [Some (c, d)] with [c] the copy closest to
    node [v], [d] edges away (ties to the lowest id), or [None] while the
    object has no copy. O(height). *)

val server : t -> obj:int -> int -> int option
(** The copy currently serving a leaf's requests, if it has any. *)

val edge_loads : t -> int array
(** A fresh copy of the per-edge absolute loads. *)

val total_load : t -> int

val congestion : t -> float
(** Congestion of the current state — bit-identical to
    [Placement.congestion] of {!snapshot}, in O(n) instead of a full
    re-evaluation. *)

val evaluate : t -> Placement.congestion

val snapshot : t -> Placement.t
(** Materialize the current state as a placement. When only
    {!add_copy}/{!remove_copy}/{!move_copy} were used (no manual
    {!reassign}), this is structurally equal to
    [Placement.nearest w ~copies:(current copy sets)]. Raises
    [Invalid_argument] while an object with requests has no copies. *)
