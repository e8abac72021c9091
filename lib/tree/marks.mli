(** Dynamic nearest-marked-node queries on a rooted tree.

    Maintains a set of marked nodes under {!mark}/{!unmark} and answers
    "which marked node is closest to [v]?" in O(height) — the query the
    load-accounting engine ([Hbn_loads.Loads]) asks when a removed copy
    orphans its readers. Each toggle repairs a per-node subtree aggregate
    along the path to the root (O(height · degree)); both bounds are small
    on hierarchical bus networks, which are shallow by construction.

    Ties on distance resolve to the lowest node id, the reference-copy
    rule that the from-scratch kernel {!Flat.iter_nearest} computes for
    all nodes at once in O(n), so that incrementally maintained
    assignments stay bit-identical to from-scratch ones. *)

type t

val create : Tree.rooted -> t
(** An empty mark set over the given rooting. The rooting's arrays must
    outlive the structure and stay unchanged. *)

val mark : t -> int -> unit
(** Idempotent. *)

val unmark : t -> int -> unit
(** Idempotent. *)

val is_marked : t -> int -> bool

val count : t -> int
(** Number of marked nodes. *)

val marked : t -> int list
(** All marked nodes, ascending (O(n) — not for hot paths). *)

val nearest : t -> int -> (int * int) option
(** [nearest t v] is [Some (u, d)] with [u] the marked node closest to
    [v] ([d] edges away; ties to the lowest id), or [None] when nothing
    is marked. [v] itself may be marked (then [d = 0]). *)
