(** Parallel serial prefix of the work-stealing plan.

    A stealing run starts with two passes: routing the trace's
    accesses into work items ({!Shard.route_segment} /
    {!Shard.concat_routes}) and replaying its sync events into the
    shared timeline ({!Sync_timeline.feed}).  With FastTrack's O(1)
    epoch fast path making the per-item analysis cheap, that prefix
    is the driver's dominant Amdahl term: at serial fraction [s],
    speedup is capped at [1 / (s + (1-s)/jobs)] no matter how well the
    items balance.

    {!build} parallelizes the routing and overlaps the replay with it:

    - the trace is cut into segments ({!Trace.segment_bounds});
      routing workers pull segments dynamically and route each with
      {!Shard.route_segment} — routing is a pure per-event function,
      so per-segment runs concatenate (in segment order) to exactly
      the one-segment plan ({!Shard.concat_routes});
    - each completed segment is {e published} through an atomic slot;
      one dedicated builder domain consumes the segments' sync-event
      runs strictly in segment order, {!Sync_timeline.feed}ing them
      into its builder — every sync index in trace order, as the
      one-segment prefix feeds them, so checkpoints, cursor semantics
      and every stats counter are identical ([test/test_prefix.ml]
      asserts all of it);
    - stitching the per-slot runs overlaps the builder's tail; the
      timeline is finalized once routing has determined the thread
      count.

    A one-segment prefix runs the same route, stitch and feed on the
    calling domain.  The replay itself is inherently sequential (each
    sync event's post-state depends on the previous one), but it is
    ~3% of the trace; the pass that {e was} O(n) serial work is the
    routing, and that is what parallelizes.  Warnings and witnesses
    downstream are byte-identical to the sequential driver. *)

type t = {
  plan : Shard.plan;
  prepass : Shard.prepass;
  timeline : Sync_timeline.t;
  segments : int;  (** segments actually used; 1 = calling domain only *)
  route_wall : float;
      (** wall seconds of the routing side: the routing pass plus run
          stitching *)
  build_wall : float;
      (** builder-domain {e busy} seconds: time replaying sync events,
          excluding time spent waiting for segments *)
  wall : float;  (** total prefix wall seconds (what Amdahl charges) *)
}

val build :
  ?obs:Obs.t ->
  ?factor:int ->
  ?skip:(Var.t -> bool) ->
  ?segments:int ->
  jobs:int ->
  Trace.t ->
  t
(** Build the stealing plan and sync timeline for [tr].

    [segments] defaults to a jobs- and length-scaled count; [1] (or
    [jobs <= 1], or a short trace) routes one segment and builds the
    timeline on the calling domain — the reference the equivalence
    tests pin.  [factor] and [skip] are {!Shard.route_segment}'s.
    [skip] is called concurrently from routing domains: the certified
    sets [Static] builds are read-only, which is sufficient.

    Uses up to [jobs] routing domains (calling domain included) plus
    one builder domain for the duration of the call.  With an enabled
    [obs], records [prefix] / [prefix.route] / [prefix.timeline]
    spans and [prefix.segments] / [prefix.wall_s] gauges. *)
