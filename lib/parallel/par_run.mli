(** Orchestration of a parallel analysis region.

    [Par_run] owns the generic pipeline — drain a task queue on a pool
    of domains ({!Domain_pool.run_queue}), time the whole region with
    a wall clock — while staying agnostic of what an "analysis" is:
    the caller's tasks are the work items of a [Shard.plan], which
    index into the shared, immutable trace (zero-copy: no per-domain
    materialization).  This keeps [ft_parallel] free of any
    dependency on the detector framework, so the detector library can
    depend on it. *)

val now : unit -> float
(** Seconds on the system {e monotonic} clock ([CLOCK_MONOTONIC]).
    The absolute value is meaningless; differences are elapsed wall
    time immune to NTP steps and manual clock changes, so timing
    records built from it can never come out negative. *)

val wall_time : (unit -> 'a) -> 'a * float
(** [wall_time f] runs [f ()] and reports elapsed {e wall-clock}
    seconds on the monotonic clock ({!now}).  The sequential driver's
    [Driver.time] reports CPU seconds, which is the wrong measure for
    a multi-domain region (CPU time sums across domains). *)

val queue :
  ?obs:Obs.t ->
  jobs:int ->
  tasks:int ->
  (worker:int -> task:int -> 'a) ->
  ('a array * int list array) * float
(** {!Domain_pool.run_queue} wrapped for the driver: the whole
    work-stealing region is one ["parallel.region"] span (with [jobs]
    and [tasks] attributes) and is timed on the monotonic wall clock.
    Returns the per-task results, the per-worker claimed task lists,
    and the region's wall seconds. *)
