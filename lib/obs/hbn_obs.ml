(* The observability layer: attribution, telemetry, monitors and reports
   over the event core of [Hbn_trace], which is re-exported here so that
   [Hbn_obs.Trace] and [Hbn_trace.Trace] name one module. *)

module Json = Hbn_trace.Json
module Sink = Hbn_trace.Sink
module Trace = Hbn_trace.Trace
module Attribution = Attribution
module Monitor = Monitor
module Report = Report
module Telemetry = Telemetry
