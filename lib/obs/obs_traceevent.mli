(** Chrome trace-event export of the span timeline.

    Renders an enabled {!Obs.t}'s span sink — the [prefix] /
    [parallel.region] / [item-N] / [merge] / [analyze] phase spans
    plus the zero-duration [race] instants recorded by [Race_log] —
    as a Trace Event Format JSON document loadable in Perfetto
    ([https://ui.perfetto.dev]) or [chrome://tracing].  Work-item
    spans land on their own timeline rows, so the schedule the
    [workers:] line summarizes as a single imbalance ratio becomes
    visible.

    Mapping:
    - a span becomes one complete event ([ph = "X"]) with
      microsecond [ts]/[dur] relative to the sink's epoch;
    - a span named [item-N] is placed on virtual thread [N + 1]
      (named ["item N"]); everything else rides on thread 0
      (["driver"]);
    - a zero-duration span named [race] becomes a global instant
      event ([ph = "i", s = "g"]) — a vertical marker at the moment
      the warning was recorded, carrying the variable, trace index
      and race kind in [args];
    - span attributes become the event's [args];
    - when a shadow-state profiler handle is supplied ([?prof]), its
      sampled series becomes two counter tracks ([ph = "C"]):
      [prof.o1_ops] and [prof.vc_ops], cumulative attributed ops whose
      slopes visualize the fast-path share over time next to the
      phase spans.

    The document carries [otherData.schema = "ftrace.trace/1"]. *)

val schema_version : string

val document : ?prof:Obs_prof.t -> Obs.t -> Obs_json.t
(** The full trace document.  A disabled handle yields a valid
    document with an empty [traceEvents] array. *)

val to_string : ?prof:Obs_prof.t -> Obs.t -> string

val write_file : path:string -> ?prof:Obs_prof.t -> Obs.t -> unit
(** Writes {!document} to [path]; [path = "-"] writes to stdout. *)
