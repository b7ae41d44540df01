(* Shared sync-timeline snapshots (see sync_timeline.mli and
   DESIGN.md §"Sync timeline + work stealing").

   One sequential pass over the trace's sync events drives a private
   Vc_state — the sequential detectors' own Figure 3 / Section 4 rules
   — and records, per thread, a copy of every clock a rule wrote.  Sync
   events are ~3% of the stream, so the timeline is small, built once,
   and then shared read-only by every analysis domain — replacing the
   jobs× redundant private sync replays of the original sharded
   driver. *)

module VC = Vector_clock

(* -- immutable timeline ------------------------------------------- *)

type checkpoint = {
  at : int;  (* trace index of the sync event; -1 for the initial state *)
  vc : VC.t;  (* private copy — read-only, shared across domains *)
  ep : Epoch.t;  (* cached E(t) = vc(t)@t *)
}

type lock_checkpoint = {
  lat : int;  (* trace index of the acquire/release; -1 initial *)
  stamp : int;  (* Held_locks stamp: ordinal in its thread's list *)
  held : Lockid.t list;  (* sorted, immutable *)
}

type stats = {
  sync_events : int;
  other_events : int;  (* non-sync, non-access events (txn markers) *)
  vc_ops : int;  (* O(n) clock operations of the replay, as Vc_state counts *)
  vc_allocs : int;  (* the replay's Vc_state clock allocations *)
  checkpoints : int;  (* clock checkpoints recorded across all threads *)
  snapshot_hits : int;  (* checkpoints skipped as unchanged *)
  words : int;  (* approx heap words of the timeline (snapshots + tables) *)
}

type t = {
  nthreads : int;
  clocks : checkpoint array array;  (* [tid] -> checkpoints, .at increasing *)
  locks : lock_checkpoint array array;  (* [tid] -> held-lock checkpoints *)
  barriers : int array;  (* indices of Barrier_release events, increasing *)
  stats : stats;
}

let stats tl = tl.stats
let thread_count tl = tl.nthreads

(* -- incremental builder ------------------------------------------- *)

(* Per-thread accumulators are reverse chronological and grow on first
   touch: [ensure_thread b t] gives every thread up to [t] its σ₀
   checkpoint (clock inc_u(⊥V)) at index -1, so every lookup finds a
   state. *)
type builder = {
  st : Stats.t;  (* the replay's vc_ops / vc_allocs *)
  vcs : Vc_state.t;
  live_locks : Held_locks.t;
  mutable n : int;  (* threads with a σ₀ checkpoint *)
  mutable cps : checkpoint list array;
  mutable held_cps : lock_checkpoint list array;
  mutable barriers_rev : int list;
  mutable c_sync : int;
  mutable c_other : int;
  mutable c_checkpoints : int;
  mutable c_snapshot_hits : int;
  mutable c_words : int;
}

let builder_create () =
  let st = Stats.create () in
  { st;
    vcs = Vc_state.create st;
    live_locks = Held_locks.create ();
    n = 0;
    cps = [||];
    held_cps = [||];
    barriers_rev = [];
    c_sync = 0;
    c_other = 0;
    c_checkpoints = 0;
    c_snapshot_hits = 0;
    c_words = 0 }

let push_checkpoint b t cp =
  b.cps.(t) <- cp :: b.cps.(t);
  b.c_checkpoints <- b.c_checkpoints + 1;
  b.c_words <- b.c_words + VC.heap_words cp.vc + 5 (* + checkpoint record *)

let ensure_thread b t =
  if t >= b.n then begin
    let cap = Array.length b.cps in
    if t >= cap then begin
      let grow a =
        Array.init (max (t + 1) (2 * cap)) (fun u -> if u < cap then a.(u) else [])
      in
      b.cps <- grow b.cps;
      b.held_cps <- grow b.held_cps
    end;
    for u = b.n to t do
      let vc = VC.create ~capacity:(u + 1) () in
      VC.inc vc u;
      push_checkpoint b u { at = -1; vc; ep = Epoch.make ~tid:u ~clock:1 }
    done;
    b.n <- t + 1
  end

(* Record thread [t]'s post-event clock.  Skipped when the clock is
   unchanged since [t]'s previous checkpoint: lookups then resolve to
   that identical snapshot.  Nothing else could be shared: [C_t] only
   grows, and [C_u(t) < C_t(t)] for every [u <> t], so no other
   thread's snapshot, past or present, ever equals it. *)
let checkpoint b ~index t =
  let ep = Vc_state.epoch b.vcs t and live = Vc_state.clock b.vcs t in
  match b.cps.(t) with
  | { vc; ep = prev; _ } :: _ when Epoch.equal prev ep && VC.equal vc live ->
    b.c_snapshot_hits <- b.c_snapshot_hits + 1
  | _ -> push_checkpoint b t { at = index; vc = VC.copy live; ep }

let lock_checkpoint b ~index t =
  let stamp, held = Held_locks.held b.live_locks t in
  b.held_cps.(t) <- { lat = index; stamp; held } :: b.held_cps.(t);
  b.c_words <- b.c_words + 5 + (3 * List.length held)

let event_max_tid e =
  match e with
  | Event.Read { t; _ } | Event.Write { t; _ }
  | Event.Acquire { t; _ } | Event.Release { t; _ }
  | Event.Volatile_read { t; _ } | Event.Volatile_write { t; _ }
  | Event.Txn_begin { t } | Event.Txn_end { t } -> t
  | Event.Fork { t; u } | Event.Join { t; u } -> max t u
  | Event.Barrier_release { threads } -> List.fold_left max 0 threads

(* Apply the rule through Vc_state, then checkpoint every thread whose
   clock it wrote. *)
let feed b tr ~index =
  let e = Trace.get tr index in
  if Event.is_sync e then begin
    ensure_thread b (event_max_tid e);
    b.c_sync <- b.c_sync + 1;
    ignore (Vc_state.handle_sync b.vcs e);
    Held_locks.on_event b.live_locks e;
    match e with
    | Event.Acquire { t; _ } | Event.Release { t; _ } ->
      checkpoint b ~index t;
      lock_checkpoint b ~index t
    | Event.Volatile_read { t; _ } | Event.Volatile_write { t; _ } ->
      checkpoint b ~index t
    | Event.Fork { t; u } | Event.Join { t; u } ->
      checkpoint b ~index t;
      checkpoint b ~index u
    | Event.Barrier_release { threads } ->
      b.barriers_rev <- index :: b.barriers_rev;
      List.iter (checkpoint b ~index) threads
    | Event.Read _ | Event.Write _ | Event.Txn_begin _ | Event.Txn_end _ -> ()
  end
  else b.c_other <- b.c_other + 1

let finalize b ~nthreads =
  (* Pad threads no sync event touched (they exist in the trace via
     accesses or txn markers only) with their σ₀ state. *)
  ensure_thread b (max (max 1 nthreads) b.n - 1);
  let freeze rev = Array.of_list (List.rev rev) in
  { nthreads = b.n;
    clocks = Array.init b.n (fun t -> freeze b.cps.(t));
    locks =
      Array.init b.n (fun t ->
          Array.of_list
            ({ lat = -1; stamp = 0; held = [] } :: List.rev b.held_cps.(t)));
    barriers = freeze b.barriers_rev;
    stats =
      { sync_events = b.c_sync;
        other_events = b.c_other;
        vc_ops = b.st.Stats.vc_ops;
        vc_allocs = b.st.Stats.vc_allocs;
        checkpoints = b.c_checkpoints;
        snapshot_hits = b.c_snapshot_hits;
        words = b.c_words } }

(* -- cursors ------------------------------------------------------- *)

(* A cursor is a private, mutable bundle of per-thread positions into
   the immutable checkpoint arrays.  Shards walk their events in trace
   order, so seeks are monotone and amortize to O(1); an occasional
   regression (a detector revisiting an earlier index) just restarts
   that thread's scan from the front. *)
type cursor = {
  tl : t;
  cpos : int array;  (* per-tid position into tl.clocks.(t) *)
  lpos : int array;  (* per-tid position into tl.locks.(t) *)
  mutable bpos : int;  (* barriers strictly before the last index *)
}

let cursor tl =
  { tl;
    cpos = Array.make tl.nthreads 0;
    lpos = Array.make tl.nthreads 0;
    bpos = 0 }

let cursor_timeline cur = cur.tl

let[@inline] check_tid tl t =
  if t < 0 || t >= tl.nthreads then
    invalid_arg
      (Printf.sprintf "Sync_timeline: tid %d out of range (threads = %d)" t
         tl.nthreads)

(* Latest clock checkpoint of thread [t] with [at < index]: the state
   a detector processing trace position [index] must observe — sync
   effects at the access's own index (impossible for accesses, but
   defensively) are not yet visible. *)
let seek_clock cur ~index t =
  check_tid cur.tl t;
  let cps = cur.tl.clocks.(t) in
  let p = ref cur.cpos.(t) in
  if cps.(!p).at >= index then p := 0 (* regression: restart *);
  while !p + 1 < Array.length cps && cps.(!p + 1).at < index do
    incr p
  done;
  cur.cpos.(t) <- !p;
  cps.(!p)

let clock cur ~index t = (seek_clock cur ~index t).vc
let epoch cur ~index t = (seek_clock cur ~index t).ep

(* Latest held-lock checkpoint of thread [t] with [lat < index].  The
   returned [stamp] is a per-thread ordinal that uniquely identifies
   the lock set, letting callers memoize derived representations. *)
let held_locks cur ~index t =
  check_tid cur.tl t;
  let cps = cur.tl.locks.(t) in
  let p = ref cur.lpos.(t) in
  if cps.(!p).lat >= index then p := 0;
  while !p + 1 < Array.length cps && cps.(!p + 1).lat < index do
    incr p
  done;
  cur.lpos.(t) <- !p;
  let cp = cps.(!p) in
  (cp.stamp, cp.held)

(* Number of Barrier_release events strictly before [index] — the
   barrier generation a sequential detector would have accumulated on
   reaching that trace position. *)
let barrier_generation cur ~index =
  let b = cur.tl.barriers in
  let n = Array.length b in
  let p = ref cur.bpos in
  if !p > 0 && b.(!p - 1) >= index then p := 0;
  while !p < n && b.(!p) < index do
    incr p
  done;
  cur.bpos <- !p;
  !p
