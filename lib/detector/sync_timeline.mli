(** Shared sync-timeline snapshots.

    The sharded driver's original design replayed the {e full}
    synchronization stream privately in every shard: [jobs] copies of
    the same O(n)·VC work — exactly the redundancy FastTrack's epochs
    were invented to avoid, and the measured cause of the driver's
    anti-scaling (speedup 0.2–0.35× at [--jobs 8]).

    This module replaces that with a {e single} sequential pass built
    once before the shards run.  The pass is a {e recording} of the
    sequential sync state, not a second implementation of it: it
    drives one private {!Vc_state} (the Figure 3 / Section 4 rules
    every sequential detector runs) and {!Held_locks}, and after each
    sync event checkpoints, per thread the rule wrote:

    - a copy of the post-event clock [C_t], skipped when the clock is
      unchanged since the thread's previous checkpoint (lookups then
      resolve to that identical copy).  No other sharing is possible:
      a thread's clock only grows and [C_u(t) < C_t(t)] for every
      [u <> t], so no other snapshot, of any thread at any time, is
      structurally equal to it;
    - the cached epoch [E(t) = C_t(t)@t];
    - the held-lock set (for lockset-based detectors) with its
      per-thread [stamp] ordinal enabling memoized conversions;
    - the stream of [Barrier_release] indices (for barrier-generation
      detectors).

    Sync events are ~3% of a typical trace, so the timeline is small
    (see [stats] and DESIGN.md §"Sync timeline + work stealing") and
    shared {e read-only} by every analysis domain.

    {2 Visibility rule}

    A checkpoint recorded at sync index [j] is visible to lookups with
    [index > j]: a detector processing the access at trace position
    [i] observes exactly the sync state a sequential run would have
    accumulated on reaching [i].  The initial state σ₀ (each thread's
    clock at [inc_t ⊥V]) is recorded at index [-1], so every lookup
    resolves. *)

type t
(** Immutable timeline: safe to share across domains without locks. *)

(** Build-time statistics, folded into driver stats and exported as
    [timeline.*] observability gauges. *)
type stats = {
  sync_events : int;  (** sync events replayed (once, total) *)
  other_events : int;
      (** non-sync, non-access events (txn markers) *)
  vc_ops : int;  (** O(n) clock operations, as [Vc_state] counts them *)
  vc_allocs : int;  (** clocks the replay's [Vc_state] allocated *)
  checkpoints : int;  (** clock checkpoints recorded across all threads *)
  snapshot_hits : int;  (** checkpoints skipped as unchanged *)
  words : int;  (** approx heap words of the timeline *)
}

(** {2 Builder}

    [Prefix.build] {!feed}s the builder every non-access event index,
    in increasing order — on a dedicated domain pipelined against
    segmented routing, or on the calling domain for a one-segment
    prefix.  Threads are created on first touch and padded at
    {!finalize}, because the trace's thread count is only known once
    routing has finished.

    A builder is single-domain mutable state: feed it from one domain
    at a time, and hand it across domains only through a
    synchronizing operation (the prefix hands it through
    [Domain.join]). *)

type builder

val builder_create : unit -> builder

val feed : builder -> Trace.t -> index:int -> unit
(** Replay the (non-access) event at [index].  Indices must arrive in
    increasing order across all feeds. *)

val finalize : builder -> nthreads:int -> t
(** Freeze into an immutable timeline covering [max nthreads seen]
    threads; threads no sync event touched get their σ₀ checkpoint. *)

val stats : t -> stats
val thread_count : t -> int

(** {2 Cursors}

    A cursor is a private, mutable bundle of positions into the shared
    checkpoint arrays — one per detector instance, never shared across
    domains.  Lookups at monotonically non-decreasing indices (the
    common case: shards walk events in trace order) amortize to O(1);
    an index regression restarts the affected thread's scan. *)

type cursor

val cursor : t -> cursor
val cursor_timeline : cursor -> t

val clock : cursor -> index:int -> Tid.t -> Vector_clock.t
(** [clock cur ~index t] is thread [t]'s vector clock as of trace
    position [index] (exclusive).  The returned clock is a shared
    snapshot: callers must treat it as read-only.
    @raise Invalid_argument if [t] is outside the trace's threads. *)

val epoch : cursor -> index:int -> Tid.t -> Epoch.t
(** [epoch cur ~index t] = [clock cur ~index t](t)@t, precomputed. *)

val held_locks : cursor -> index:int -> Tid.t -> int * Lockid.t list
(** Locks held by [t] just before [index], as [(stamp, sorted set)].
    [stamp] is a per-thread ordinal identifying the set — equal stamps
    (for one thread) mean the identical list, so callers can memoize
    derived representations keyed on [(t, stamp)]. *)

val barrier_generation : cursor -> index:int -> int
(** Number of [Barrier_release] events strictly before [index]. *)
