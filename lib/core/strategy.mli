(** The extended-nibble strategy (the paper's main contribution).

    Pipeline, per Section 3:
    + {b Step 1} — the nibble strategy computes a per-edge-optimal placement
      that may use buses (module {!Hbn_nibble.Nibble}).
    + {b Step 2} — the deletion algorithm removes copies serving fewer than
      [κ_x] requests and splits overloaded ones (module {!Deletion}).
    + {b Step 3} — the mapping algorithm moves the remaining bus copies to
      processors (module {!Mapping}).

    The resulting leaf-only placement has congestion at most [7 · C_opt]
    (Theorem 4.3), where [C_opt] is the optimal congestion of the
    hierarchical bus network.

    Two degenerate object classes bypass Steps 2–3 (see DESIGN.md):
    objects without requests get no copies, and write-free objects
    ([κ_x = 0]) get one copy on every requesting processor, which serves
    locally at zero cost. Objects whose placement contains no bus copy
    after Step 2 are left unchanged, following the paper's remark that the
    strategy "does not change their placement"; with
    [move_leaf_copies = true] the upwards phase additionally moves copies
    that already sit on processors, matching the pseudocode of Figure 5
    verbatim (an ablation; both variants satisfy all certificates). *)

module Workload = Hbn_workload.Workload
module Placement = Hbn_placement.Placement

type result = {
  placement : Placement.t;  (** the final, leaf-only placement *)
  nibble : Placement.t;  (** the Step 1 placement (per-edge lower bound) *)
  modified : Placement.t;  (** the Step 2 ("modified nibble") placement *)
  tau_max : int;  (** 0 when no object needed mapping *)
  mapping : Mapping.stats option;
  deletions : int;
  splits : int;
  mapped_objects : int list;  (** objects whose copies went through Step 3 *)
  copies : Copy.t list;
      (** every Step 2 copy (positions reflect Step 3 movement; the served
          counts and write contentions are those fixed by Step 2) *)
}

val run :
  ?move_leaf_copies:bool ->
  ?verify:bool ->
  ?on_mapping_round:(Mapping.state -> unit) ->
  ?exec:Hbn_exec.Exec.t ->
  Workload.t ->
  result
(** [run w] executes the full strategy. [verify] turns on Invariant 4.2
    checking after every mapping round (slow; meant for tests);
    [on_mapping_round] is forwarded to {!Mapping.run}.
    [move_leaf_copies] defaults to [false].

    [exec] (default sequential) fans the per-object stages — Step 1,
    Step 2, and placement construction — out over domains via
    {!Hbn_exec.Exec.map}; Step 3 (mapping) shares its load accumulators
    across objects and stays a sequential global phase. Results are
    bit-identical at any job count: per-object work is pure, the merge
    runs in object order, and copy ids are renumbered into the same
    global sequence the old shared-counter allocation produced.

    When {!Hbn_obs.Trace} is enabled, the pipeline emits one span per
    step — [strategy.nibble] (attrs [objects], [copies]),
    [strategy.deletion] (attrs [deletions], [splits]) and
    [strategy.mapping] (attrs [tau_max], [mapped_objects], [moves_up],
    [moves_down]) — nested in a [strategy.run] root span, plus the
    [strategy.deletions] / [strategy.splits] counters. Only when the
    sink asked for them ({!Hbn_obs.Trace.attribution}) does it also
    emit one [strategy.attribution] snapshot per step. Tracing only
    observes: the computed result is identical with tracing on, off, or
    absent. *)

val congestion :
  ?move_leaf_copies:bool -> ?exec:Hbn_exec.Exec.t -> Workload.t -> float
(** Congestion of [run w].placement — convenience wrapper. *)
