(** Variable-sharded partitioning of a trace for the parallel driver.

    FastTrack's per-variable shadow states are independent of one
    another: the only state shared between accesses to different
    variables is the synchronization component ([C]/[L] of Figure 4),
    which is written exclusively by synchronization events.  The event
    stream therefore parallelizes by {e variable sharding}: each
    access event [rd(t,x)]/[wr(t,x)] is routed to exactly one shard,
    chosen by [x]'s object identifier ({!Var.owner_shard}).

    The synchronization component is not split at all: it is replayed
    once into the shared read-only [Sync_timeline], and the plan
    ({!concat_routes}) splits only the {e access events}, over
    [factor x jobs] fine-grained items ([obj mod slots]) sorted
    longest-first.  Workers pull items dynamically
    ({!Domain_pool.run_queue}), so a hot object pins at most one
    worker.

    Because the split preserves the relative order of the events each
    item receives, and the original trace index travels with each
    event, a detector run over an item produces exactly the warnings
    the sequential run produces for that item's variables — with the
    same trace indices and prior epochs (see DESIGN.md §"Sync
    timeline + work stealing" for the argument). *)

type t = {
  shard_id : int;
  trace : Trace.t;  (** shared, immutable *)
  indices : int array;
      (** original trace positions of this shard's events, increasing *)
  accesses : int;  (** read/write events owned by this shard *)
}

type plan = {
  jobs : int;
  slots : int;  (** number of work items, [factor x jobs] *)
  shards : t array;
      (** length [slots], LPT order (descending accesses, ties by
          shard id) *)
  syncs : int;
      (** number of non-access events, replayed exactly once into the
          sync timeline *)
}

val shard_of_var : jobs:int -> Var.t -> int
(** Alias for {!Var.owner_shard}. *)

type prepass = {
  pp_nthreads : int;  (** max tid over every event, + 1 *)
  pp_eliminated : int;
      (** accesses dropped at routing time by [?skip] (0 without it) *)
}
(** Byproduct of routing: the thread count the sync-timeline build
    pads to, and the elimination count. *)

(** {2 Routing}

    Routing is a {e pure per-event function} ([x.obj mod slots] for
    accesses, "push to the sync run" for everything else), so it
    segments trivially: {!route_segment} routes one half-open trace
    range into private per-slot index runs, and {!concat_routes}
    stitches any partition's runs back — in segment order — into the
    plan, equal for {e every} segmentation to the one-segment plan
    (same item index sequences, same LPT order, same thread count;
    asserted in [test/test_prefix.ml]).  [Prefix.build] runs the
    segments on separate domains and pipelines the sync-timeline
    build against routing, or routes one segment [[0, length)] on the
    calling domain. *)

type segment_route
(** One segment's routing byproduct: per-slot index runs, the
    segment's sync-event run, max tid and elimination count. *)

val route_segment :
  ?factor:int -> ?skip:(Var.t -> bool) -> jobs:int -> lo:int -> hi:int ->
  Trace.t -> segment_route
(** Route the access events of [[lo, hi)] into [max 1 factor * jobs]
    items (default factor {!default_steal_factor}) by object id, and
    collect the segment's non-access event indices.  Pure function of
    the segment: safe to run concurrently for disjoint segments.

    [skip] is the static check-elimination hook ([Config.static_elim]
    routed through [Driver.run_stealing]): accesses satisfying it are
    dropped during routing — before items exist — and counted in
    [pp_eliminated], so the LPT order and worker balance reflect the
    post-elimination load.  Sync events are never skipped.  [skip]
    must itself be safe for concurrent calls — the certified sets
    built by [Static] are read-only hash tables, which are. *)

val route_iter_sync : segment_route -> (int -> unit) -> unit
(** Iterate the segment's non-access event indices in trace order —
    the timeline builder's input, copy-free. *)

val concat_routes :
  jobs:int -> segment_route array -> Trace.t -> plan * prepass
(** Stitch the segments' runs (given in segment order, covering the
    trace) into the stealing plan — only access events, LPT-sorted —
    and the prepass.  Items may be empty (few distinct objects);
    consumers skip them.  All routes must share one [factor]/[jobs]
    (hence slot count).
    @raise Invalid_argument on an empty route array. *)

val default_steal_factor : int
(** Items per worker (8): enough slack for dynamic balancing while
    keeping per-item detector-instance overhead negligible. *)

val length : t -> int

val iteri : (int -> Event.t -> unit) -> t -> unit
(** [iteri f s] calls [f original_trace_index event] for every event
    of the shard, in trace order. *)

val imbalance_of_counts : int array -> float
(** Max over mean of the counts (1.0 = perfectly balanced).
    [Driver.run_parallel] computes it from per-worker access totals so
    the measurement costs no extra trace pass, and it is exported in
    [ftrace analyze -j] output and [Bench_json] records.  Empty or
    all-zero arrays report [1.0]. *)
