module VC = Vector_clock

type t = {
  stats : Stats.t;
  prof : Obs_prof.t;  (* sync-op attribution hook; disabled = None *)
  mutable clocks : VC.t array;   (* C, indexed by tid *)
  mutable epochs : Epoch.t array; (* cached E(t) = C_t(t)@t *)
  mutable nthreads : int;
  locks : (Lockid.t, VC.t) Hashtbl.t;
  volatiles : (Volatile.t, VC.t) Hashtbl.t;
}

let create ?(prof = Obs_prof.disabled) stats =
  { stats;
    prof;
    clocks = [||];
    epochs = [||];
    nthreads = 0;
    locks = Hashtbl.create 16;
    volatiles = Hashtbl.create 8 }

(* Placeholder for a thread whose clock [clock] has not created yet;
   compared by identity and never mutated. *)
let unborn = VC.create ~capacity:1 ()

(* Slots grow by doubling, but a slot's clock is only built the first
   time [clock] touches it: memory follows the threads that sync or
   take an O(n) rule, not the largest tid.  [epochs] is filled eagerly
   with σ₀'s [u@1], so the per-access [epoch] lookup stays a load. *)
let ensure_thread s t =
  let n = Array.length s.clocks in
  if t >= n then begin
    let n' = max (t + 1) (2 * n + 1) in
    let clocks = Array.make n' unborn in
    let epochs = Array.init n' (fun u -> Epoch.make ~tid:u ~clock:1) in
    Array.blit s.clocks 0 clocks 0 n;
    Array.blit s.epochs 0 epochs 0 n;
    s.clocks <- clocks;
    s.epochs <- epochs
  end;
  if t >= s.nthreads then s.nthreads <- t + 1

let clock s t =
  ensure_thread s t;
  let c = s.clocks.(t) in
  if c != unborn then c
  else begin
    let v = VC.create () in
    VC.inc v t;
    s.clocks.(t) <- v;
    s.stats.vc_allocs <- s.stats.vc_allocs + 1;
    Stats.add_words s.stats (VC.heap_words v);
    v
  end

let epoch s t =
  ensure_thread s t;
  s.epochs.(t)

let refresh_epoch s t =
  s.epochs.(t) <- Epoch.make ~tid:t ~clock:(VC.get s.clocks.(t) t)

let sync_vc s table key =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = VC.create () in
    Hashtbl.replace table key v;
    s.stats.vc_allocs <- s.stats.vc_allocs + 1;
    Stats.add_words s.stats (VC.heap_words v);
    v

let vc_op s =
  s.stats.vc_ops <- s.stats.vc_ops + 1;
  (* sync events are a few percent of a trace, so the profiler hook
     here is a plain (cold-ish) call, not a cached-bool branch *)
  Obs_prof.sync_vc_op s.prof

let handle_sync s e =
  match e with
  | Event.Read _ | Event.Write _ -> false
  | Event.Acquire { t; m } ->
    (* [FT ACQUIRE]  C' = C[t := Ct ⊔ Lm] *)
    let ct = clock s t in
    VC.join_into ~dst:ct (sync_vc s s.locks m);
    vc_op s;
    refresh_epoch s t;
    true
  | Event.Release { t; m } ->
    (* [FT RELEASE]  L' = L[m := Ct]; C' = C[t := inc_t(Ct)] *)
    let ct = clock s t in
    VC.copy_into ~dst:(sync_vc s s.locks m) ct;
    vc_op s;
    VC.inc ct t;
    refresh_epoch s t;
    true
  | Event.Fork { t; u } ->
    (* [FT FORK]  C' = C[u := Cu ⊔ Ct, t := inc_t(Ct)] *)
    let ct = clock s t and cu = clock s u in
    VC.join_into ~dst:cu ct;
    vc_op s;
    VC.inc ct t;
    refresh_epoch s t;
    refresh_epoch s u;
    true
  | Event.Join { t; u } ->
    (* [FT JOIN]  C' = C[t := Ct ⊔ Cu, u := inc_u(Cu)] *)
    let ct = clock s t and cu = clock s u in
    VC.join_into ~dst:ct cu;
    vc_op s;
    VC.inc cu u;
    refresh_epoch s t;
    refresh_epoch s u;
    true
  | Event.Volatile_read { t; v } ->
    (* [FT READ VOLATILE]  C' = C[t := Ct ⊔ Lvx] *)
    let ct = clock s t in
    VC.join_into ~dst:ct (sync_vc s s.volatiles v);
    vc_op s;
    refresh_epoch s t;
    true
  | Event.Volatile_write { t; v } ->
    (* [FT WRITE VOLATILE]  L' = L[vx := Ct ⊔ Lvx]; C' = C[t := inc_t(Ct)] *)
    let ct = clock s t in
    let lv = sync_vc s s.volatiles v in
    VC.join_into ~dst:lv ct;
    vc_op s;
    VC.inc ct t;
    refresh_epoch s t;
    true
  | Event.Barrier_release { threads } ->
    (* [FT BARRIER RELEASE]  C' = λt∈T. inc_t(⊔_{u∈T} Cu) *)
    let joined = VC.create () in
    s.stats.vc_allocs <- s.stats.vc_allocs + 1;
    List.iter
      (fun u ->
        VC.join_into ~dst:joined (clock s u);
        vc_op s)
      threads;
    List.iter
      (fun u ->
        VC.copy_into ~dst:(clock s u) joined;
        vc_op s;
        VC.inc s.clocks.(u) u;
        refresh_epoch s u)
      threads;
    true
  | Event.Txn_begin _ | Event.Txn_end _ -> true

let thread_count s = s.nthreads
