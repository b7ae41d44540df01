(* Shared sync-timeline snapshots (see sync_timeline.mli and
   DESIGN.md §"Sync timeline + work stealing").

   One sequential pass over the trace replays every synchronization
   event through a private vector-clock machine (the same Figure 3 /
   Section 4 rules as Vc_state — asserted equal in
   test/test_timeline.ml) and checkpoints, per thread, the post-event
   clock and epoch.  Sync events are ~3% of the stream, so the
   timeline is small, built once, and then shared read-only by every
   analysis domain — replacing the jobs× redundant private sync
   replays of the original sharded driver. *)

module VC = Vector_clock

(* -- immutable timeline ------------------------------------------- *)

type checkpoint = {
  at : int;  (* trace index of the sync event; -1 for the initial state *)
  vc : VC.t;  (* interned snapshot — read-only, shared across threads *)
  ep : Epoch.t;  (* cached E(t) = vc(t)@t *)
}

type lock_checkpoint = {
  lat : int;  (* trace index of the acquire/release; -1 initial *)
  stamp : int;  (* ordinal of this checkpoint in its thread's list *)
  held : Lockid.t list;  (* sorted, immutable *)
}

type stats = {
  sync_events : int;
  other_events : int;  (* non-sync, non-access events (txn markers) *)
  vc_ops : int;  (* O(n) clock operations of the replay, as Vc_state counts *)
  vc_allocs : int;  (* live-machine clock allocations *)
  checkpoints : int;  (* clock checkpoints recorded across all threads *)
  snapshots : int;  (* distinct interned snapshot vectors *)
  snapshot_hits : int;  (* checkpoints served by interning / no-change *)
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

(* -- build-time machine ------------------------------------------- *)

type machine = {
  mutable m_clocks : VC.t array;  (* live C, indexed by tid *)
  m_locks : (Lockid.t, VC.t) Hashtbl.t;
  m_volatiles : (Volatile.t, VC.t) Hashtbl.t;
  (* per-thread checkpoint accumulators, reverse chronological *)
  mutable cps : checkpoint list array;
  mutable held : Lockid.t list array;  (* live held-lock set, sorted *)
  mutable held_cps : lock_checkpoint list array;
  mutable held_n : int array;  (* checkpoints so far = next stamp *)
  mutable barriers_rev : int list;
  (* interning pool: logical clock contents (trailing zeros trimmed,
     cf. VC.to_list) -> the shared snapshot *)
  intern : (int list, VC.t) Hashtbl.t;
  (* counters *)
  mutable c_sync : int;
  mutable c_other : int;
  mutable c_vc_ops : int;
  mutable c_vc_allocs : int;
  mutable c_checkpoints : int;
  mutable c_snapshots : int;
  mutable c_snapshot_hits : int;
  mutable c_words : int;
}

let vc_op m = m.c_vc_ops <- m.c_vc_ops + 1

let sync_vc m table key =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = VC.create () in
    Hashtbl.replace table key v;
    m.c_vc_allocs <- m.c_vc_allocs + 1;
    v

(* Intern a snapshot of thread [t]'s current clock.  Keyed on the
   trimmed logical contents, so structurally equal clocks — the common
   case when a thread re-acquires a lock it released, leaving its
   clock unchanged — share one vector. *)
let snapshot m t =
  let key = VC.to_list m.m_clocks.(t) in
  match Hashtbl.find_opt m.intern key with
  | Some v ->
    m.c_snapshot_hits <- m.c_snapshot_hits + 1;
    v
  | None ->
    let v = VC.of_list key in
    Hashtbl.replace m.intern key v;
    m.c_snapshots <- m.c_snapshots + 1;
    (* snapshot vector + intern key list (3 words per cons) + slot *)
    m.c_words <- m.c_words + VC.heap_words v + (3 * List.length key) + 2;
    v

(* Record thread [t]'s post-event state.  Skipped when the clock is
   unchanged since [t]'s previous checkpoint: lookups then resolve to
   the earlier, identical snapshot. *)
let checkpoint m ~index t =
  let ep = Epoch.make ~tid:t ~clock:(VC.get m.m_clocks.(t) t) in
  match m.cps.(t) with
  | { vc; ep = prev_ep; _ } :: _
    when Epoch.equal prev_ep ep && VC.equal vc m.m_clocks.(t) ->
    m.c_snapshot_hits <- m.c_snapshot_hits + 1
  | _ ->
    let vc = snapshot m t in
    m.cps.(t) <- { at = index; vc; ep } :: m.cps.(t);
    m.c_checkpoints <- m.c_checkpoints + 1;
    m.c_words <- m.c_words + 5 (* checkpoint record *)

let held_checkpoint m ~index t held =
  let stamp = m.held_n.(t) + 1 in
  m.held.(t) <- held;
  m.held_n.(t) <- stamp;
  m.held_cps.(t) <- { lat = index; stamp; held } :: m.held_cps.(t);
  m.c_words <- m.c_words + 5 + (3 * List.length held)

let rec insert_sorted (m : Lockid.t) = function
  | [] -> [ m ]
  | x :: rest when x < m -> x :: insert_sorted m rest
  | x :: _ as l when x > m -> m :: l
  | l -> l (* already held: Lockset.Held is a set, mirror that *)

let remove_lock (m : Lockid.t) l = List.filter (fun x -> x <> m) l

(* The Figure 3 / Section 4 rules, mirroring Vc_state.handle_sync
   (including its vc-op accounting) but additionally checkpointing the
   post-event state of every thread whose clock the rule writes. *)
let handle_sync_event m ~index e =
  let clock t = m.m_clocks.(t) in
  match e with
  | Event.Read _ | Event.Write _ -> ()
  | Event.Acquire { t; m = l } ->
    VC.join_into ~dst:(clock t) (sync_vc m m.m_locks l);
    vc_op m;
    checkpoint m ~index t;
    held_checkpoint m ~index t (insert_sorted l m.held.(t))
  | Event.Release { t; m = l } ->
    let ct = clock t in
    VC.copy_into ~dst:(sync_vc m m.m_locks l) ct;
    vc_op m;
    VC.inc ct t;
    checkpoint m ~index t;
    held_checkpoint m ~index t (remove_lock l m.held.(t))
  | Event.Fork { t; u } ->
    let ct = clock t and cu = clock u in
    VC.join_into ~dst:cu ct;
    vc_op m;
    VC.inc ct t;
    checkpoint m ~index t;
    checkpoint m ~index u
  | Event.Join { t; u } ->
    let ct = clock t and cu = clock u in
    VC.join_into ~dst:ct cu;
    vc_op m;
    VC.inc cu u;
    checkpoint m ~index t;
    checkpoint m ~index u
  | Event.Volatile_read { t; v } ->
    VC.join_into ~dst:(clock t) (sync_vc m m.m_volatiles v);
    vc_op m;
    checkpoint m ~index t
  | Event.Volatile_write { t; v } ->
    let ct = clock t in
    let lv = sync_vc m m.m_volatiles v in
    VC.join_into ~dst:lv ct;
    vc_op m;
    VC.inc ct t;
    checkpoint m ~index t
  | Event.Barrier_release { threads } ->
    m.barriers_rev <- index :: m.barriers_rev;
    let joined = VC.create () in
    m.c_vc_allocs <- m.c_vc_allocs + 1;
    List.iter
      (fun u ->
        VC.join_into ~dst:joined (clock u);
        vc_op m)
      threads;
    List.iter
      (fun u ->
        VC.copy_into ~dst:(clock u) joined;
        vc_op m;
        VC.inc (clock u) u;
        checkpoint m ~index u)
      threads
  | Event.Txn_begin _ | Event.Txn_end _ -> ()

(* -- incremental builder ------------------------------------------- *)

(* The machine starts with zero threads and grows on first touch:
   [ensure_thread m t] creates every missing thread up to [t] —
   contiguously, so tid ranges stay dense exactly as the fixed-size
   build allocated them — giving each new thread its initial clock
   inc_t(⊥V) and its σ₀ checkpoint at index -1.  Growth is exact (no
   doubling): it happens at most once per distinct tid, and thread
   counts are tiny next to trace lengths.

   Stats equality with the fixed-size build: totals are sums, so only
   interning *hit patterns* could diverge with creation order — and
   they cannot: an initial snapshot's content (1 at t, 0 elsewhere) is
   reachable only by thread t's own unchanged clock (any other thread
   u's clock has u-component >= 1), so every initial interning is a
   miss and every later lookup hits/misses identically.  Asserted
   stats-equal against the one-shot build in test/test_prefix.ml. *)
type builder = machine

let ensure_thread (m : machine) t =
  let n = Array.length m.m_clocks in
  if t >= n then begin
    let n' = t + 1 in
    let grow a fill = Array.init n' (fun u -> if u < n then a.(u) else fill u) in
    m.m_clocks <-
      grow m.m_clocks (fun u ->
          let v = VC.create () in
          VC.inc v u;
          v);
    m.c_vc_allocs <- m.c_vc_allocs + (n' - n);
    m.cps <- grow m.cps (fun _ -> []);
    m.held <- grow m.held (fun _ -> []);
    m.held_cps <- grow m.held_cps (fun _ -> []);
    m.held_n <- grow m.held_n (fun _ -> 0);
    (* σ₀ checkpoints at index -1, so every lookup finds a state. *)
    for u = n to n' - 1 do
      checkpoint m ~index:(-1) u
    done
  end

let builder_create () : builder =
  { m_clocks = [||];
    m_locks = Hashtbl.create 16;
    m_volatiles = Hashtbl.create 8;
    cps = [||];
    held = [||];
    held_cps = [||];
    held_n = [||];
    barriers_rev = [];
    intern = Hashtbl.create 64;
    c_sync = 0;
    c_other = 0;
    c_vc_ops = 0;
    c_vc_allocs = 0;
    c_checkpoints = 0;
    c_snapshots = 0;
    c_snapshot_hits = 0;
    c_words = 0 }

let event_max_tid e =
  match e with
  | Event.Read { t; _ } | Event.Write { t; _ }
  | Event.Acquire { t; _ } | Event.Release { t; _ }
  | Event.Volatile_read { t; _ } | Event.Volatile_write { t; _ }
  | Event.Txn_begin { t } | Event.Txn_end { t } -> t
  | Event.Fork { t; u } | Event.Join { t; u } -> max t u
  | Event.Barrier_release { threads } -> List.fold_left max 0 threads

let feed (m : builder) tr ~index =
  let e = Trace.get tr index in
  if Event.is_sync e then begin
    ensure_thread m (event_max_tid e);
    m.c_sync <- m.c_sync + 1;
    handle_sync_event m ~index e
  end
  else m.c_other <- m.c_other + 1

let finalize (m : builder) ~nthreads =
  let nthreads = max (max 1 nthreads) (Array.length m.m_clocks) in
  (* Pad threads never touched by a sync event (they exist in the
     trace via accesses or txn markers only) with their σ₀ state. *)
  ensure_thread m (nthreads - 1);
  { nthreads;
    clocks = Array.map (fun rev -> Array.of_list (List.rev rev)) m.cps;
    locks =
      Array.map
        (fun rev ->
          Array.of_list ({ lat = -1; stamp = 0; held = [] } :: List.rev rev))
        m.held_cps;
    barriers = Array.of_list (List.rev m.barriers_rev);
    stats =
      { sync_events = m.c_sync;
        other_events = m.c_other;
        vc_ops = m.c_vc_ops;
        vc_allocs = m.c_vc_allocs;
        checkpoints = m.c_checkpoints;
        snapshots = m.c_snapshots;
        snapshot_hits = m.c_snapshot_hits;
        words = m.c_words } }

let build_indexed ~nthreads ~sync_indices tr =
  let m = builder_create () in
  (* All threads exist up front, so the replay below never grows. *)
  ensure_thread m (max 1 nthreads - 1);
  Array.iter (fun index -> feed m tr ~index) sync_indices;
  finalize m ~nthreads

(* Standalone build: one collecting pass (non-access indices + thread
   count), then the indexed replay.  The sharded driver avoids even
   this pass by reusing the stealing plan's prepass. *)
let build tr =
  let sync = ref [] in
  let n = ref 0 in
  let max_tid = ref 0 in
  let tid t = if t > !max_tid then max_tid := t in
  Trace.iteri
    (fun index e ->
      match e with
      | Event.Read { t; _ } | Event.Write { t; _ } -> tid t
      | Event.Acquire { t; _ } | Event.Release { t; _ }
      | Event.Volatile_read { t; _ } | Event.Volatile_write { t; _ }
      | Event.Txn_begin { t } | Event.Txn_end { t } ->
        tid t;
        sync := index :: !sync;
        incr n
      | Event.Fork { t; u } | Event.Join { t; u } ->
        tid t;
        tid u;
        sync := index :: !sync;
        incr n
      | Event.Barrier_release { threads } ->
        List.iter tid threads;
        sync := index :: !sync;
        incr n)
    tr;
  let sync_indices = Array.make !n 0 in
  List.iteri (fun i idx -> sync_indices.(!n - 1 - i) <- idx) !sync;
  build_indexed ~nthreads:(!max_tid + 1) ~sync_indices tr

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
