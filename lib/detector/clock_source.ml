(* Where a detector's synchronization state comes from (see
   clock_source.mli).  Live = a private Vc_state fed every sync event
   (sequential runs).  Shared = a cursor over an immutable
   Sync_timeline built once before the parallel region (work-stealing
   items). *)

type t =
  | Live of Vc_state.t
  | Shared of Sync_timeline.cursor

let create (config : Config.t) stats =
  match config.Config.sync_source with
  | Some tl -> Shared (Sync_timeline.cursor tl)
  | None -> Live (Vc_state.create ~prof:config.Config.prof stats)

let is_shared = function Live _ -> false | Shared _ -> true

let handle_sync cs e =
  match cs with
  | Live s -> Vc_state.handle_sync s e
  | Shared _ ->
    (* The timeline already replayed every sync event; a shared-mode
       detector only ever receives (and analyzes) accesses. *)
    not (Event.is_access e)

let epoch cs ~index t =
  match cs with
  | Live s -> Vc_state.epoch s t
  | Shared cur -> Sync_timeline.epoch cur ~index t

let clock cs ~index t =
  match cs with
  | Live s -> Vc_state.clock s t
  | Shared cur -> Sync_timeline.clock cur ~index t

let thread_count = function
  | Live s -> Vc_state.thread_count s
  | Shared cur -> Sync_timeline.thread_count (Sync_timeline.cursor_timeline cur)

(* -- lock / barrier facet ------------------------------------------ *)

(* Live lock tracking is the same [Held_locks] the timeline builder
   checkpoints, so lockset detectors see one representation — sorted
   [Lockid.t list] plus a per-thread stamp ordinal — in both modes and
   can memoize derived set representations keyed on [(tid, stamp)]. *)

type locks =
  | L_live of Held_locks.t
  | L_shared of Sync_timeline.cursor

let locks (config : Config.t) =
  match config.Config.sync_source with
  | Some tl -> L_shared (Sync_timeline.cursor tl)
  | None -> L_live (Held_locks.create ())

let locks_on_event ls e =
  match ls with
  | L_shared _ -> () (* the timeline already tracked it *)
  | L_live l -> Held_locks.on_event l e

let held_locks ls ~index t =
  match ls with
  | L_shared cur -> Sync_timeline.held_locks cur ~index t
  | L_live l -> Held_locks.held l t

let barrier_generation ls ~index =
  match ls with
  | L_shared cur -> Sync_timeline.barrier_generation cur ~index
  | L_live l -> Held_locks.barrier_generation l
