(** FastTrack over recycled thread slots ("accordion" clocks).

    A tid -> slot renaming in front of one {!Fasttrack}: every event's
    thread ids become slots, assigned on first mention (fork/join: [t]
    then [u]; barrier: list order) and reused last-in first-out.  When
    a joined thread's final clock is known to every live thread, its
    slot is recycled, so the length of every vector clock — per-thread,
    per-lock, and the read clocks of read-shared variables — is
    bounded by the maximum number of {e concurrently live} threads
    instead of the total number of threads the program ever created.

    No generations are needed: FT JOIN increments the joined thread's
    own clock, so the slot's next owner, which keeps the slot's clock,
    starts above every epoch the dead thread used, and every live
    thread already orders that thread's accesses before its own.
    Warnings are mapped back to thread ids, with each thread's clock
    counted from 1; they equal {!Fasttrack}'s race for race (thread,
    variable, position and kind), and the prior matches whenever the
    slot order picks the same racing reader.  No witnesses: they would
    hold slot-indexed clocks.

    Assumption (the Java thread model RoadRunner instruments): every
    thread except the initial ones is created by [fork], and initial
    threads act before any [join].  A hand-written trace in which a
    brand-new root thread takes its first step only {e after} a join
    has allowed collection could miss a race against the collected
    thread, because the newcomer inherits the dead thread's clock
    without its forking parent's knowledge.  Traces from {!Scheduler}
    and {!Trace_gen} always satisfy the assumption. *)

include Detector.S

val slot_count : t -> int
(** Slots ever allocated: the accordion's bound on clock length. *)

val live_threads : t -> int
(** Threads with a slot that have not been joined. *)
