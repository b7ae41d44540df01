(** Span-based phase tracing.

    A sink collects [(name, start, duration, attrs)] spans, all
    timestamped with wall-clock offsets from the sink's creation, so a
    run's phases — prefix / parallel region / per-item analyze /
    merge — line up on one timeline even when recorded from different
    domains.

    The sink is mutex-protected: the parallel driver records one span
    per work item from inside the worker's domain (one lock
    acquisition per {e item}, never per event). *)

type attr = Int of int | Float of float | Str of string

type span = {
  name : string;
  start : float;     (** seconds since the sink's epoch *)
  duration : float;  (** wall seconds *)
  attrs : (string * attr) list;
}

type t

val create : unit -> t
(** A fresh sink; its epoch is "now". *)

val now : t -> float
(** Wall seconds since the sink's epoch. *)

val with_ : ?attrs:(string * attr) list -> t -> string -> (unit -> 'a) -> 'a
(** [with_ t name f] times [f ()] and records the span (also on
    exceptions, so a failing phase still shows in the timeline). *)

val record :
  t -> name:string -> start:float -> duration:float ->
  ?attrs:(string * attr) list -> unit -> unit
(** Record a span measured externally ([start] relative to the sink's
    epoch, see {!now}); this is what the per-item instrumentation
    uses so the span can carry attributes computed after the fact
    (owned accesses, warnings). *)

val spans : t -> span list
(** All spans so far, ordered by start time. *)

val to_json : t -> Obs_json.t
(** [[{"name":..,"start_s":..,"duration_s":..,"attrs":{..}}, ...]] *)
