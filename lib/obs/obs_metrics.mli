(** Metrics registry: named counters, gauges and log-scale histograms.

    Design constraints (DESIGN.md §Observability):
    - {e registration} (name lookup) is the cold path, done once at
      setup; {e bumping} is the hot path and is a single unboxed
      mutation on a handle the caller retains — no hashing, no
      allocation, no branch beyond the caller's own enabled-guard;
    - registries are {e not} synchronized: only the domain that owns
      the run updates them (workers report through spans and their
      own {!Stats});
    - a {!snapshot} is an immutable copy safe to export after the
      hot region ends. *)

type counter
(** Monotonic integer count (events processed, spans opened, ...). *)

type gauge
(** Last-value-wins float (heap words, imbalance, ...). *)

type histogram
(** Power-of-two-bucketed distribution for latencies and sizes:
    [observe] computes the bucket from the float's binary exponent
    ([Float.frexp]), so one array covers [2^-32 .. 2^32) seconds (or
    words) with no configuration.  Out-of-range and non-positive
    values clamp to the edge buckets. *)

type t
(** A registry. *)

val create : unit -> t

(** {2 Registration (cold)} *)

val counter : t -> string -> counter
(** Registers (or retrieves) the named counter. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {2 Bumping (hot, O(1))} *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one sample: bucket count, running sum, running max. *)

(** {2 Snapshot & merge} *)

type histogram_snapshot = {
  count : int;
  sum : float;
  max_sample : float;
  buckets : (int * int) list;
      (** (binary exponent e, samples with value in [2^(e-1), 2^e)));
          only non-empty buckets, ascending by exponent *)
}

type snapshot = {
  counters : (string * int) list;      (** sorted by name *)
  gauges : (string * float) list;      (** sorted by name *)
  histograms : (string * histogram_snapshot) list;  (** sorted by name *)
}

val snapshot : t -> snapshot

val snapshot_to_json : snapshot -> Obs_json.t
(** {v
    { "counters": {name: n, ...},
      "gauges": {name: v, ...},
      "histograms": {name: {"count":n,"sum":s,"max":m,
                            "buckets":[{"le_exp":e,"n":k},...]}, ...} }
    v} *)
