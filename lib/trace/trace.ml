type span = { id : int; name : string; start : int64 }

let none = { id = 0; name = ""; start = 0L }

(* The [enabled] fast path reads [sink] without the lock: installing a
   sink happens-before any instrumented work is fanned out (the CLI sets
   it up before the pipeline runs), so domains observe a stable value,
   and a stale [None] only skips an event — never corrupts state. All
   mutation of ids, the span stack and the counter/gauge tables goes
   through [mutex]: ids are allocated under the lock in call order, so
   single-emitter traces (the only kind the pipeline produces — pool
   tasks emit no spans) keep the byte-identical-run-to-run property, and
   concurrent emitters from [Hbn_exec] domains are merely serialized
   instead of racing. *)
type state = {
  sink : Sink.t option;
  attribution : bool;
  mutable next_id : int;
  mutable stack : int list;  (* open span ids, innermost first *)
  counters : (string, int) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
}

let fresh sink ~attribution =
  {
    sink;
    attribution;
    next_id = 1;
    stack = [];
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
  }

(* The current tracer. Installing a sink swaps in a fresh state, so
   [with_sink] restores the enclosing tracer by swapping it back. *)
let st = ref (fresh None ~attribution:false)

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let enabled () = Option.is_some !st.sink

let attribution () = !st.attribution && enabled ()

let set_sink ?(attribution = false) sink =
  locked @@ fun () ->
  Option.iter (fun s -> s.Sink.flush ()) !st.sink;
  st := fresh sink ~attribution

let with_sink ?(attribution = false) sink f =
  let saved =
    locked @@ fun () ->
    let saved = !st in
    st := fresh (Some sink) ~attribution;
    saved
  in
  Fun.protect
    ~finally:(fun () ->
      locked @@ fun () ->
      sink.Sink.flush ();
      st := saved)
    f

let parent t = match t.stack with [] -> 0 | p :: _ -> p

(* Runs [f] on the current tracer under the lock when a sink is
   installed; the unlocked check first keeps the disabled path to one
   branch. *)
let with_tracer ~off f =
  match !st.sink with
  | None -> off
  | Some _ -> (
    locked @@ fun () ->
    let t = !st in
    match t.sink with None -> off | Some sink -> f t sink)

let span ?(attrs = []) name =
  let opened =
    with_tracer ~off:None @@ fun t sink ->
    let id = t.next_id in
    t.next_id <- id + 1;
    sink.Sink.emit
      { Sink.name; id; parent = parent t; payload = Sink.Span_start; attrs };
    t.stack <- id :: t.stack;
    Some id
  in
  match opened with
  | None -> none
  | Some id -> { id; name; start = Monotonic_clock.now () }

let finish ?(attrs = []) sp =
  if sp.id <> 0 then
    let duration_ns = Int64.sub (Monotonic_clock.now ()) sp.start in
    with_tracer ~off:() @@ fun t sink ->
    (t.stack <-
      (match t.stack with
      | top :: rest when top = sp.id -> rest
      | stack -> List.filter (fun id -> id <> sp.id) stack));
    sink.Sink.emit
      {
        Sink.name = sp.name;
        id = sp.id;
        parent = parent t;
        payload = Sink.Span_end { duration_ns };
        attrs;
      }

let emit ev =
  with_tracer ~off:() @@ fun t sink ->
  sink.Sink.emit
    (if ev.Sink.parent = 0 then { ev with Sink.parent = parent t } else ev)

let event ?(attrs = []) name =
  with_tracer ~off:() @@ fun t sink ->
  sink.Sink.emit
    { Sink.name; id = 0; parent = parent t; payload = Sink.Point; attrs }

let count ?(by = 1) name =
  with_tracer ~off:() @@ fun t _ ->
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.counters name) in
  Hashtbl.replace t.counters name (prev + by)

let gauge name value =
  with_tracer ~off:() @@ fun t sink ->
  Hashtbl.replace t.gauges name value;
  sink.Sink.emit
    {
      Sink.name;
      id = 0;
      parent = parent t;
      payload = Sink.Gauge { value };
      attrs = [];
    }

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () = locked @@ fun () -> sorted !st.counters

let emit_totals () =
  with_tracer ~off:() @@ fun t sink ->
  let total payload name =
    sink.Sink.emit { Sink.name; id = 0; parent = 0; payload; attrs = [] }
  in
  List.iter
    (fun (name, value) -> total (Sink.Counter { value }) name)
    (sorted t.counters);
  List.iter
    (fun (name, value) -> total (Sink.Gauge { value }) name)
    (sorted t.gauges)

let flush () = with_tracer ~off:() @@ fun _ sink -> sink.Sink.flush ()
