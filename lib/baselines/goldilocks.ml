module Iset = Lockset.Iset

let name = "Goldilocks"

(* Goldilocks replays the synchronization-op log lazily per variable
   (transfer closures over the op list): its sync state is not a
   per-thread clock lookup, so it cannot resolve against a shared
   Sync_timeline: Driver.run_parallel runs it sequentially. *)
let shares_clocks = false

(* Synchronization elements: threads, locks and volatiles share one
   integer namespace. *)
let thread_elt t = 3 * t
let lock_elt m = (3 * m) + 1
let volatile_elt v = (3 * v) + 2

type sync_op =
  | S_acquire of Tid.t * Lockid.t
  | S_release of Tid.t * Lockid.t
  | S_fork of Tid.t * Tid.t
  | S_join of Tid.t * Tid.t
  | S_volatile_read of Tid.t * Volatile.t
  | S_volatile_write of Tid.t * Volatile.t
  | S_barrier of Tid.t list

(* The lockset transfer rules of the Goldilocks algorithm. *)
let transfer op ls =
  match op with
  | S_release (u, m) ->
    if Iset.mem (thread_elt u) ls then Iset.add (lock_elt m) ls else ls
  | S_acquire (u, m) ->
    if Iset.mem (lock_elt m) ls then Iset.add (thread_elt u) ls else ls
  | S_fork (u, w) ->
    if Iset.mem (thread_elt u) ls then Iset.add (thread_elt w) ls else ls
  | S_join (u, w) ->
    if Iset.mem (thread_elt w) ls then Iset.add (thread_elt u) ls else ls
  | S_volatile_write (u, v) ->
    if Iset.mem (thread_elt u) ls then Iset.add (volatile_elt v) ls else ls
  | S_volatile_read (u, v) ->
    if Iset.mem (volatile_elt v) ls then Iset.add (thread_elt u) ls else ls
  | S_barrier threads ->
    if List.exists (fun u -> Iset.mem (thread_elt u) ls) threads then
      List.fold_left (fun ls u -> Iset.add (thread_elt u) ls) ls threads
    else ls

type var_state = {
  x : Var.t;
  mutable log_ptr : int;  (* next sync-log entry to replay *)
  mutable write_ls : Iset.t option;  (* None: never written *)
  mutable reader_ls : (Tid.t * Iset.t) list;  (* reads since last write *)
}

type t = {
  config : Config.t;
  stats : Stats.t;
  mutable log : sync_op array;
  mutable log_len : int;
  vars : var_state Shadow.t;
  races : Race_log.t;
}

let create config =
  { config;
    stats = Stats.create ();
    log = Array.make 1024 (S_barrier []);
    log_len = 0;
    vars = Shadow.create config.Config.granularity;
    races = Race_log.create ~obs:config.Config.obs () }

let append_sync d op =
  let cap = Array.length d.log in
  if d.log_len = cap then begin
    let fresh = Array.make (2 * cap) op in
    Array.blit d.log 0 fresh 0 cap;
    d.log <- fresh
  end;
  d.log.(d.log_len) <- op;
  d.log_len <- d.log_len + 1

let new_var_state d x =
  (* A fresh location needs no replay of past synchronization: its
     locksets are empty and transfers preserve emptiness. *)
  Stats.add_words d.stats 8;
  { x; log_ptr = d.log_len; write_ls = None; reader_ls = [] }

let var_state d x =
  match Shadow.find d.vars x with
  | Some st -> st
  | None -> Shadow.get d.vars x (new_var_state d)

(* Lazy evaluation: replay the unseen suffix of the sync log on this
   location's locksets. *)
let replay d st =
  if st.log_ptr < d.log_len then begin
    for i = st.log_ptr to d.log_len - 1 do
      let op = d.log.(i) in
      (match st.write_ls with
      | Some ls -> st.write_ls <- Some (transfer op ls)
      | None -> ());
      st.reader_ls <-
        List.map (fun (u, ls) -> (u, transfer op ls)) st.reader_ls;
      d.stats.epoch_ops <- d.stats.epoch_ops + 1
    done;
    st.log_ptr <- d.log_len
  end

let read d ~index t x =
  let st = var_state d x in
  let key = Shadow.key d.vars x in
  replay d st;
  (match st.write_ls with
  | Some ls when not (Iset.mem (thread_elt t) ls) ->
    Race_log.report d.races ~key ~x:st.x ~tid:t ~index
      ~kind:Warning.Write_read ()
  | Some _ | None -> ());
  let singleton = Iset.singleton (thread_elt t) in
  st.reader_ls <-
    (t, singleton) :: List.filter (fun (u, _) -> not (Tid.equal u t))
                        st.reader_ls

let write d ~index t x =
  let st = var_state d x in
  let key = Shadow.key d.vars x in
  replay d st;
  (match st.write_ls with
  | Some ls when not (Iset.mem (thread_elt t) ls) ->
    Race_log.report d.races ~key ~x:st.x ~tid:t ~index
      ~kind:Warning.Write_write ()
  | Some _ | None -> ());
  if
    List.exists
      (fun (u, ls) ->
        (not (Tid.equal u t)) && not (Iset.mem (thread_elt t) ls))
      st.reader_ls
  then
    Race_log.report d.races ~key ~x:st.x ~tid:t ~index
      ~kind:Warning.Read_write ();
  st.write_ls <- Some (Iset.singleton (thread_elt t));
  st.reader_ls <- []

let on_event d ~index e =
  Stats.count_event d.stats e;
  match e with
  | Event.Read { t; x } -> read d ~index t x
  | Event.Write { t; x } -> write d ~index t x
  | Event.Acquire { t; m } -> append_sync d (S_acquire (t, m))
  | Event.Release { t; m } -> append_sync d (S_release (t, m))
  | Event.Fork { t; u } -> append_sync d (S_fork (t, u))
  | Event.Join { t; u } -> append_sync d (S_join (t, u))
  | Event.Volatile_read { t; v } -> append_sync d (S_volatile_read (t, v))
  | Event.Volatile_write { t; v } -> append_sync d (S_volatile_write (t, v))
  | Event.Barrier_release { threads } -> append_sync d (S_barrier threads)
  | Event.Txn_begin _ | Event.Txn_end _ -> ()

let warnings d = Race_log.warnings d.races
let witnesses d = Race_log.witnesses d.races
let stats d = d.stats
