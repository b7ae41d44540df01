(** The FastTrack race detector (Section 3 of the paper).

    FastTrack is a precise happens-before detector that replaces the
    per-location vector clocks of DJIT+-style tools with an adaptive
    lightweight representation:

    - the write history [W_x] is always a single epoch, because writes
      to a race-free variable are totally ordered;
    - the read history [R_x] is an epoch while reads are totally
      ordered (thread-local and lock-protected data) and switches to a
      full vector clock only when the variable becomes read-shared;
      rule [FT WRITE SHARED] demotes it back to an epoch on the next
      write.

    The implementation follows the instrumentation code of Figure 5:
    epochs are packed integers, each thread's current epoch is cached,
    and the two slow operations (vector-clock allocation and full
    comparison) occur only on the rare [FT READ SHARE] and
    [FT WRITE SHARED] paths.

    Rule names used in the statistics histogram (for the Figure 2
    frequency table): ["READ SAME EPOCH"], ["READ SHARED"],
    ["READ EXCLUSIVE"], ["READ SHARE"], ["WRITE SAME EPOCH"],
    ["WRITE EXCLUSIVE"], ["WRITE SHARED"]. *)

include Detector.S

val record_event : t -> index:int -> Event.t -> unit
(** The flight-recorder hook {!on_event} runs first when
    [config.recorder] is enabled: logs an access (with its thread's
    current epoch) or a lock event, and analyzes nothing.  For front
    ends that analyze only some accesses — the sampling tier calls it
    for every access it skips, because the recorder documents the
    trace, not the sample.  Call it only with the recorder enabled. *)

(** Observable representation of a variable's shadow state, for
    demonstrations and tests of the adaptive switching (the Figure 4
    trace). *)
type repr = {
  write : Epoch.t;  (** [W_x] *)
  read : [ `Epoch of Epoch.t | `Shared of Vector_clock.t ];
      (** [R_x]: [`Epoch ⊥e] when never read (or just demoted). *)
}

val inspect : t -> Var.t -> repr option
(** [None] if the variable has no shadow state yet.  The vector clock
    in [`Shared] is a copy. *)

val current_epoch : t -> Tid.t -> Epoch.t
(** The thread's cached epoch [E(t)], exposed for tests. *)
