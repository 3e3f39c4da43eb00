(** Shape checks on the renderers' JSON output.  Parsing is
    {!Service.Jsonp.parse} over {!Analysis.Json.t}, the one JSON reader
    of the repository; these functions only check that a parsed
    document carries the top-level shape its renderer promises. *)

val validate_sarif : string -> (unit, string) result
(** Parse and check the SARIF shape the lint renderer promises: a
    top-level object with a ["version"] and a non-empty ["runs"] array
    whose first run has a ["tool"] and a ["results"] array. *)

val validate_trace : string -> (int, string) result
(** Parse and check the Chrome [trace_event] shape the explain trace
    renderer promises: a ["traceEvents"] array of metadata ([ph = "M"])
    and instant ([ph = "i"], with numeric [ts]/[pid]/[tid]) events.
    [Ok n] carries the instant-event count, which callers reconcile
    with the recorder's retained-trace length. *)
