(** Trace operations (Figure 1, plus the Section 4 extensions).

    The core grammar is
    [rd(t,x) | wr(t,x) | acq(t,m) | rel(t,m) | fork(t,u) | join(t,u)];
    Section 4 adds volatile reads/writes, the [barrier_rel(T)] event,
    and — for the downstream atomicity/determinism checkers of
    Section 5.2 — transaction boundary markers (the analogue of
    RoadRunner's method entry/exit events). *)

type t =
  | Read of { t : Tid.t; x : Var.t }
  | Write of { t : Tid.t; x : Var.t }
  | Acquire of { t : Tid.t; m : Lockid.t }
  | Release of { t : Tid.t; m : Lockid.t }
  | Fork of { t : Tid.t; u : Tid.t }
  | Join of { t : Tid.t; u : Tid.t }
  | Volatile_read of { t : Tid.t; v : Volatile.t }
  | Volatile_write of { t : Tid.t; v : Volatile.t }
  | Barrier_release of { threads : Tid.t list }
      (** [barrier_rel(T)]: the set [T] of threads is simultaneously
          released from a barrier. *)
  | Txn_begin of { t : Tid.t }
  | Txn_end of { t : Tid.t }

val tid : t -> Tid.t option
(** The acting thread; [None] for [Barrier_release], which involves a
    set of threads. *)

val is_access : t -> bool
(** True for [Read] and [Write] (the 96 %+ of monitored operations the
    fast paths target). *)

val is_sync : t -> bool
(** True for everything that is neither a data access nor a transaction
    marker. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses the concrete syntax produced by {!to_string}
    (e.g. ["rd(1,x3)"], ["acq(0,m2)"], ["barrier(0,1,2)"]).  Never
    raises: a malformed event, a negative tid, object, field, lock or
    volatile id, a tid above {!Epoch.max_tid} or a field above
    {!Var.max_field} is an [Error] naming the offending id. *)
