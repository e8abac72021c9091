(** Pluggable event sinks for the observability layer.

    An {!event} is the unit of emission: hierarchical spans (start/end
    pairs sharing an id), point events, and metric samples. Sinks are
    plain records of closures so tests can plug in-memory collectors and
    the CLI can tee a JSONL writer together with a timing aggregator.

    The JSONL encoding writes exactly one JSON object per line; {!of_json}
    parses it back (via the hand-rolled {!Json} module — the toolchain
    ships no JSON library), so traces round-trip without external
    tooling. Event schema (fields in emission order):

    {v
    {"ev":"span_start","name":N,"id":I,"parent":P,"attrs":{...}}
    {"ev":"span_end","name":N,"id":I,"parent":P,"dur_ns":D,"attrs":{...}}
    {"ev":"point","name":N,"id":0,"parent":P,"attrs":{...}}
    {"ev":"counter","name":N,"id":0,"parent":0,"value":V,"attrs":{}}
    {"ev":"gauge","name":N,"id":0,"parent":P,"value":V,"attrs":{}}
    {"ev":"histogram","name":N,"id":0,"parent":0,"count":C,"mean":M,
     "min":L,"max":H,"p50":A,"p95":B,"attrs":{}}
    {"ev":"attribution","name":N,"id":0,"parent":P,"edge":E,"obj":O,
     "component":"read_path|write_path|write_steiner","amount":A,
     "attrs":{...}}
    {"ev":"fault","name":N,"id":0,"parent":P,"round":R,
     "fault":"dropped|crashed|restarted|cut|restored","node":V,"edge":E,
     "attrs":{...}}
    {"ev":"series","name":N,"id":0,"parent":P,"round":R,"span":S,
     "value":V,"edge":E,"attrs":{}}
    {"ev":"alert","name":N,"id":0,"parent":0,"round":R,"time":T,
     "series":S,"kind":K,"magnitude":M,"attrs":{}}
    v}

    [parent] is the id of the enclosing span (0 at top level). An
    [attribution] event reports one cell of a per-edge load-attribution
    table ({!Hbn_obs.Attribution}): object [O] contributes [A] absolute load
    units to edge [E] through the named component of Section 1.1's load
    definition. A [fault] event reports one injected fault of a
    [Runtime.run] under a fault plan — a dropped message, a node
    crash/restart, or an edge outage opening/closing — with [node] or
    [edge] set to [-1] when not applicable. A [series] event is one
    point of a {!Hbn_obs.Telemetry} time series: metric [N] had value [V] over
    the [S] runtime rounds ending at round [R] ([S = 1] for an exact
    per-round sample, [S > 1] after the bounded-memory collector folded
    adjacent rounds together); [edge] names the measured edge for
    per-edge utilization series and is [-1] for network-wide series. An
    [alert] event is one change-point detection of a {!Hbn_obs.Monitor}: the
    detector named [K] (["cusum_up"], ["page_hinkley_down"], ...)
    crossed its threshold on series [S] at round [R] / virtual time [T]
    with detector statistic [M]. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type payload =
  | Span_start
  | Span_end of { duration_ns : int64 }
  | Point
  | Counter of { value : int }
  | Gauge of { value : float }
  | Histogram of {
      count : int;
      mean : float;
      min : float;
      max : float;
      p50 : float;
      p95 : float;
    }
  | Attribution of { edge : int; obj : int; component : string; amount : int }
  | Fault of { round : int; fault : string; node : int; edge : int }
  | Series of { round : int; time : float; span : int; value : int; edge : int }
  | Alert of {
      round : int;
      time : float;
      series : string;
      kind : string;
      magnitude : float;
    }

val kinds : string list
(** Every ["ev"] tag {!of_json} understands, in the schema order above.
    Lets a reader distinguish an unknown (newer) event kind from a
    malformed known one. *)

type event = {
  name : string;
  id : int;  (** span id; 0 for non-span events *)
  parent : int;  (** enclosing span id; 0 at top level *)
  payload : payload;
  attrs : (string * value) list;
}

type t = { emit : event -> unit; flush : unit -> unit }

val null : t
(** Discards everything. *)

val jsonl : out_channel -> t
(** One JSON object per event, one per line; [flush] flushes the channel
    (closing it is the caller's business). *)

val memory : unit -> t * (unit -> event list)
(** An in-memory collector; the second component returns the events in
    emission order. *)

val timings : unit -> t * (unit -> (string * int * int64) list)
(** Aggregates [Span_end] durations per span name; the reader returns
    [(name, calls, total_ns)] in first-seen order. Everything else is
    discarded. *)

val tee : t -> t -> t
(** Forwards every event (and flush) to both sinks, left first. *)

val with_attrs : (unit -> (string * value) list) -> t -> t
(** [with_attrs extra inner] appends [extra ()] to every event's
    attributes before forwarding it — the provider runs on the emitting
    domain, so a closure over {!Hbn_exec.Exec.current_worker} tags each
    event with the domain that produced it. Explicit attributes win on
    duplicate keys (they come first). *)

val to_json : event -> string
(** The single-line JSON encoding above (no trailing newline). *)

val of_json : string -> (event, string) result
(** Parses one line produced by {!to_json}. [Error] explains the first
    syntax or schema problem found. *)
