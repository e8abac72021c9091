(** The global tracer: hierarchical spans, point events, and metric
    shortcuts, all gated on one flag.

    Tracing is {e off} by default: no sink is installed, {!enabled}
    returns [false], and every entry point below reduces to a single
    branch on that flag — no allocation, no clock read, no sink code.
    Instrumented call sites guard attribute construction themselves:

    {[
      let sp = Trace.span "strategy.deletion" in
      (* ... work ... *)
      if Trace.enabled () then
        Trace.finish sp ~attrs:[ ("deletions", Sink.Int d) ]
    ]}

    (with tracing off, [span] returns the shared {!none} handle and the
    [finish] call is skipped entirely, so the attribute list is never
    built). Durations come from the monotonic clock
    ([clock_gettime(CLOCK_MONOTONIC)] via bechamel's stub), so they are
    immune to wall-clock adjustments.

    Span ids start at 1 and reset whenever a sink is (un)installed, so
    traces of a deterministic program are byte-identical run to run.

    The tracer is domain-safe: ids, the span stack and sink emission are
    guarded by one mutex, and ids are allocated under the lock in call
    order. [Hbn_exec] pipelines keep their determinism contract by
    emitting spans only from the sequential merge phases — the fixed
    allocation order then makes traces byte-identical at any job count —
    but a span opened from a pool worker is merely serialized (and
    parented to the innermost open span at that moment), never a data
    race. The [enabled] fast path is a lock-free read; installing a sink
    must happen before instrumented work is fanned out.

    {b Attribution snapshots are opt-in.} A per-phase load-attribution
    snapshot ({!Hbn_obs.Attribution}, emitted by [Strategy.run]) costs
    as much as evaluating the placement several times over: it walks
    every read path, write path and write Steiner tree of Section 1.1.
    A sink that only aggregates span durations (the [--timings] table)
    or only keeps spans (a profiler) would pay that and throw the
    events away, so a sink gets them only when it is installed with
    [~attribution:true]; instrumentation that builds snapshots guards
    on {!attribution}, not on {!enabled}. Spans, points, counters and
    gauges are the same with either setting.

    Counters and gauges are part of the tracer state: they live under
    the same lock and start empty whenever a sink is (un)installed.
    Their totals reach the sink through {!emit_totals}. *)

type span
(** A handle for an open span. *)

val none : span
(** The disabled-tracer handle; finishing it is a no-op. *)

val enabled : unit -> bool
(** [true] iff a sink is installed. Instrumentation guards any work
    beyond fixed function calls behind this flag. *)

val attribution : unit -> bool
(** [true] iff a sink is installed with [~attribution:true]. Guards the
    construction of attribution snapshots. *)

val set_sink : ?attribution:bool -> Sink.t option -> unit
(** Installs (or with [None] removes) the sink, flushing the previous
    one and resetting span ids, the span stack, counters and gauges.
    [attribution] (default [false]) asks for attribution snapshots. *)

val with_sink : ?attribution:bool -> Sink.t -> (unit -> 'a) -> 'a
(** [with_sink s f] runs [f] with [s] installed on a fresh tracer state
    (as {!set_sink}), then flushes [s] and restores the previous tracer
    state, counters included (even on exceptions). *)

val span : ?attrs:(string * Sink.value) list -> string -> span
(** Opens a span: emits [Span_start] (parented to the innermost open
    span) and records the start time. Returns {!none} when disabled. *)

val finish : ?attrs:(string * Sink.value) list -> span -> unit
(** Closes the span: emits [Span_end] with the monotonic duration.
    Spans are expected to close innermost-first; finishing out of order
    is tolerated (the span is removed from wherever it sits on the
    stack). No-op on {!none}. *)

val event : ?attrs:(string * Sink.value) list -> string -> unit
(** Emits a point event inside the innermost open span. *)

val emit : Sink.event -> unit
(** Emits a pre-built event into the installed sink — the escape hatch
    for structured payloads the helpers above don't build, such as
    {!Hbn_obs.Attribution} snapshots. An event whose [parent] is [0] is
    re-parented to the innermost open span. No-op when disabled; callers
    guard the event construction behind {!enabled} (or {!attribution})
    themselves. *)

val count : ?by:int -> string -> unit
(** Adds [by] (default 1) to the named counter. Counters are
    aggregates: they appear in a trace only when {!emit_totals} dumps
    them, not per bump. No-op when disabled. *)

val gauge : string -> float -> unit
(** Records the gauge's latest value {e and} streams a [Gauge] event
    (gauges are time-varying; the per-sample history is the point).
    No-op when disabled. *)

val counters : unit -> (string * int) list
(** The counters since the sink was installed, sorted by name. *)

val emit_totals : unit -> unit
(** Dumps the totals into the installed sink: one [Counter] event per
    counter, then one [Gauge] event per gauge with its latest value,
    each sorted by name, all with [parent = 0]. No-op when disabled. *)

val flush : unit -> unit
(** Flushes the installed sink, if any. *)
