(** Fork-join execution over OCaml 5 domains.

    Two allocation-light helpers: {!map} runs one domain per task,
    joined in order; {!run_queue} builds on it a fixed set of workers
    that pull tasks from a shared counter — the work-stealing queue
    behind the parallel prefix's routing segments and the item queue
    of [Driver.run_parallel]. *)

val map : jobs:int -> (int -> 'a) -> 'a array
(** [map ~jobs f] is [[| f 0; ...; f (jobs - 1) |]].  Task 0 runs on
    the calling domain; tasks 1..jobs-1 each run on a fresh domain.
    All domains are joined before returning, even if a task raises;
    the first exception (in task order) is then re-raised.
    [jobs <= 1] degenerates to [[| f 0 |]] with no domain spawned. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the runtime's estimate of
    usefully-parallel domains on this host. *)

val run_queue :
  jobs:int ->
  tasks:int ->
  (worker:int -> task:int -> 'a) ->
  'a array * int list array
(** [run_queue ~jobs ~tasks f] runs tasks [0 .. tasks-1] on
    [min jobs tasks] workers (worker 0 on the calling domain, the rest
    on fresh domains) that {e pull} the next task index from a shared
    atomic counter until the queue drains — dynamic load balance
    instead of [map]'s fixed one-task-per-domain split.  Returns the
    per-task results in task order plus, per worker, the list of task
    indices it claimed (in pull order) for load accounting.  [f] must
    be safe to run concurrently for distinct tasks; exceptions
    propagate as in [map]. *)
