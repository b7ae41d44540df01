(** Per-thread held-lock sets and the barrier generation, tracked
    from the sync stream.

    One implementation serves both sync sources: {!Clock_source}'s live
    lock facet reads it directly, and the {!Sync_timeline} builder
    checkpoints it after every acquire and release.  A held set is a
    sorted [Lockid.t list] with set semantics (re-acquiring a held lock
    leaves it unchanged, as [Lockset.Held] does), paired with a
    per-thread [stamp] ordinal that advances on every acquire and
    release: equal stamps (for one thread) mean the identical list, so
    callers can memoize derived representations keyed on
    [(tid, stamp)]. *)

type t

val create : unit -> t

val on_event : t -> Event.t -> unit
(** Update the acting thread's set on [Acquire]/[Release] and the
    barrier generation on [Barrier_release]; every other event is a
    no-op. *)

val held : t -> Tid.t -> int * Lockid.t list
(** [(stamp, sorted set)] of the locks [t] holds now; [(0, [])] for a
    thread no acquire or release has touched. *)

val barrier_generation : t -> int
(** Number of [Barrier_release] events seen so far. *)
