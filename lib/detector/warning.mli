(** Race warnings.

    Following the paper's tools, a detector reports at most one warning
    per memory location (per shadow key, so the coarse-grain analysis
    reports at most one warning per object). *)

type kind =
  | Write_write
  | Write_read  (** an earlier write races a later read *)
  | Read_write  (** an earlier read races a later write *)
  | Lock_discipline
      (** Eraser-style report: no lock consistently protects the
          location.  Not attributable to a specific conflicting pair. *)

type prior = {
  prior_tid : Tid.t;    (** thread of the earlier racing access *)
  prior_clock : int;    (** that thread's clock at the earlier access *)
}
(** The other end of the race, recovered from the shadow state (the
    paper's "more precise error reporting", Section 4): the epoch of
    the conflicting earlier access. *)

type t = {
  x : Var.t;     (** the accessed variable (first access that tripped) *)
  tid : Tid.t;   (** thread performing the access that raised the warning *)
  index : int;   (** trace position of that access *)
  kind : kind;
  prior : prior option;
      (** [None] for lockset-based tools, which keep no clocks *)
}

val kind_to_string : kind -> string

val kind_tag : kind -> string
(** Stable machine-readable tag ([write-write], [write-read],
    [read-write], [lock-discipline]) for the [ftrace.report/1] JSON
    schema; {!kind_to_string} is the human rendering. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val compare : t -> t -> int
(** Orders by trace position. *)

val pp_context :
  Format.formatter -> ?shard:int -> ?rules:(string * int) list -> t -> unit
(** [pp] plus observability context in brackets: [shard] is the
    work-item slot that analyzed the racy variable in a parallel run
    ([Shard.shard_of_var] over the plan's slots), [rules] the run's rule histogram
    ({!Stats.rules_alist}; the top entries are printed).  Used by
    [ftrace analyze --verbose-stats]; the plain {!pp} line is a
    prefix, so grepping for it matches both renderings. *)
