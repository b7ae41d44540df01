(** The sampling tier's detector core (shared by {!Sampling_ft} and
    {!Sampling_period}).

    A per-access coin in front of one {!Fasttrack} instance built from
    the same {!Config.t}: an access outside its variable's burn-in
    budget is analyzed only when a stateless hash of
    [(seed, variable, per-variable ordinal)] lands under the
    configured rate ({!Config.sampling}).  Sampled accesses and every
    synchronization event go to {!Fasttrack.on_event}, so timestamps
    come from the same {!Clock_source} as FastTrack's (a live
    [Vc_state] sequentially, the shared [Sync_timeline] under the
    stealing plan) and every warning is FastTrack's by construction.
    Skipped accesses are counted ([Stats.skipped]) and dropped before
    touching any shadow state, so every warning the sampler raises is
    a genuine happens-before race between two analyzed accesses —
    sampling loses recall, never precision.

    At [rate = 1.0] every coin lands: warnings, witnesses and every
    [Stats] counter but [sampled]/[skipped] equal FastTrack's
    (asserted in [test/test_sampling.ml]). *)

type t

val create : period_shift:int -> Config.t -> t
(** [period_shift] buckets the per-variable ordinal before hashing:
    [0] tosses a fresh coin per access ({!Sampling_ft}), [k > 0]
    samples whole runs of [2^k] consecutive accesses to the variable
    ({!Sampling_period} uses [k = 4]), trading recall granularity for
    longer analyzed bursts that can pair both sides of a race. *)

val on_event : t -> index:int -> Event.t -> unit
val warnings : t -> Warning.t list
val witnesses : t -> Witness.t list
val stats : t -> Stats.t
