module GE = Gclock.Gepoch

let name = "FastTrack+Accordion"

(* Accordion keeps its own slot-compressed Gclock machinery (growable
   clocks, slot registry) rather than Vc_state/Clock_source: it cannot
   resolve lookups against a shared Sync_timeline, so
   Driver.run_parallel runs it sequentially. *)
let shares_clocks = false

type var_state = {
  x : Var.t;
  mutable w : GE.t;
  mutable r : GE.t;
  mutable shared : bool;  (* when true, [rvc] is the read history *)
  mutable rvc : Gclock.t option;
}

type t = {
  config : Config.t;
  stats : Stats.t;
  reg : Slot_registry.t;
  mutable clocks : Gclock.t array;  (* per slot *)
  mutable owner : Tid.t array;      (* per slot; -1 = never owned *)
  mutable epochs : GE.t array;      (* cached E(t), per slot *)
  locks : (Lockid.t, Gclock.t) Hashtbl.t;
  volatiles : (Volatile.t, Gclock.t) Hashtbl.t;
  vars : var_state Shadow.t;
  log : Race_log.t;
}

let create config =
  let stats = Stats.create () in
  { config;
    stats;
    reg = Slot_registry.create ();
    clocks = [||];
    owner = [||];
    epochs = [||];
    locks = Hashtbl.create 16;
    volatiles = Hashtbl.create 8;
    vars = Shadow.create config.Config.granularity;
    log = Race_log.create ~obs:config.Config.obs () }

let ensure_slot d s =
  let n = Array.length d.clocks in
  if s >= n then begin
    let n' = max (s + 1) (2 * n + 1) in
    let clocks = Array.make n' (Gclock.create ()) in
    let owner = Array.make n' (-1) in
    let epochs = Array.make n' GE.bottom in
    Array.blit d.clocks 0 clocks 0 n;
    Array.blit d.owner 0 owner 0 n;
    Array.blit d.epochs 0 epochs 0 n;
    for i = n to n' - 1 do
      clocks.(i) <- Gclock.create ()
    done;
    d.clocks <- clocks;
    d.owner <- owner;
    d.epochs <- epochs
  end

let refresh_epoch d s =
  d.epochs.(s) <- GE.of_clock d.reg d.clocks.(s) s

(* The slot and clock of a thread, (re)initializing the clock when the
   slot was recycled from a collected thread. *)
let thread_slot d t =
  let s = Slot_registry.slot_of d.reg t in
  ensure_slot d s;
  if d.owner.(s) <> t then begin
    d.owner.(s) <- t;
    Gclock.reset d.clocks.(s);
    Gclock.set d.reg d.clocks.(s) s 1;
    refresh_epoch d s
  end;
  s

let sync_clock d table key =
  match Hashtbl.find_opt table key with
  | Some c -> c
  | None ->
    let c = Gclock.create () in
    Hashtbl.replace table key c;
    d.stats.vc_allocs <- d.stats.vc_allocs + 1;
    c

let vc_op d = d.stats.vc_ops <- d.stats.vc_ops + 1
let epoch_op d = d.stats.epoch_ops <- d.stats.epoch_ops + 1

(* ------------------------------------------------------------------ *)
(* synchronization                                                    *)

let on_acquire d t m =
  let s = thread_slot d t in
  Gclock.join_into d.reg ~dst:d.clocks.(s) (sync_clock d d.locks m);
  vc_op d;
  refresh_epoch d s

let on_release d t m =
  let s = thread_slot d t in
  Gclock.copy_into d.reg ~dst:(sync_clock d d.locks m) d.clocks.(s);
  vc_op d;
  Gclock.inc d.reg d.clocks.(s) s;
  refresh_epoch d s

let on_fork d t u =
  let st = thread_slot d t in
  let su = thread_slot d u in
  Gclock.join_into d.reg ~dst:d.clocks.(su) d.clocks.(st);
  vc_op d;
  Gclock.inc d.reg d.clocks.(st) st;
  refresh_epoch d st;
  refresh_epoch d su

let attempt_collection d =
  Slot_registry.collect d.reg ~live_dominates:(fun ~slot ~clock ->
      List.for_all
        (fun w ->
          let sw = Slot_registry.slot_of d.reg w in
          ensure_slot d sw;
          Gclock.get d.reg d.clocks.(sw) slot >= clock)
        (Slot_registry.live_tids d.reg))

let on_join d t u =
  let st = thread_slot d t in
  let su = thread_slot d u in
  Gclock.join_into d.reg ~dst:d.clocks.(st) d.clocks.(su);
  vc_op d;
  let final_clock = Gclock.get d.reg d.clocks.(su) su in
  Gclock.inc d.reg d.clocks.(su) su;
  refresh_epoch d st;
  refresh_epoch d su;
  (* the joined thread will never act again: queue its slot and try to
     recycle everything that has become globally known *)
  Slot_registry.on_join d.reg ~joined:u ~final_clock;
  attempt_collection d

let on_volatile_read d t v =
  let s = thread_slot d t in
  Gclock.join_into d.reg ~dst:d.clocks.(s) (sync_clock d d.volatiles v);
  vc_op d;
  refresh_epoch d s

let on_volatile_write d t v =
  let s = thread_slot d t in
  let lv = sync_clock d d.volatiles v in
  Gclock.join_into d.reg ~dst:lv d.clocks.(s);
  vc_op d;
  Gclock.inc d.reg d.clocks.(s) s;
  refresh_epoch d s

let on_barrier d threads =
  let joined = Gclock.create () in
  d.stats.vc_allocs <- d.stats.vc_allocs + 1;
  let slots = List.map (fun u -> thread_slot d u) threads in
  List.iter
    (fun s ->
      Gclock.join_into d.reg ~dst:joined d.clocks.(s);
      vc_op d)
    slots;
  List.iter
    (fun s ->
      Gclock.copy_into d.reg ~dst:d.clocks.(s) joined;
      vc_op d;
      Gclock.inc d.reg d.clocks.(s) s;
      refresh_epoch d s)
    slots

(* ------------------------------------------------------------------ *)
(* accesses (the Figure 5 rules over generational clocks)             *)

let new_var_state d x =
  Stats.add_words d.stats 8;
  { x; w = GE.bottom; r = GE.bottom; shared = false; rvc = None }

let var_state d x =
  match Shadow.find d.vars x with
  | Some st -> st
  | None -> Shadow.get d.vars x (new_var_state d)

let prior_of d e =
  { Warning.prior_tid = d.owner.(GE.slot e); prior_clock = GE.clock e }

let report d st ~tid ~index ?prior kind =
  Race_log.report d.log ~key:(Shadow.key d.vars st.x) ~x:st.x ~tid ~index
    ~kind ?prior ()

let shared_prior d rvc ct =
  let rec go s =
    if s >= Gclock.length rvc then None
    else
      let c = Gclock.get d.reg rvc s in
      if c > Gclock.get d.reg ct s then
        Some { Warning.prior_tid = d.owner.(s); prior_clock = c }
      else go (s + 1)
  in
  go 0

let read d ~index t x =
  let st = var_state d x in
  let s = thread_slot d t in
  let e = d.epochs.(s) in
  epoch_op d;
  if (not st.shared) && GE.equal st.r e then ()
  else begin
    let ct = d.clocks.(s) in
    epoch_op d;
    if not (GE.leq_clock d.reg st.w ct) then
      report d st ~tid:t ~index ~prior:(prior_of d st.w) Warning.Write_read;
    if st.shared then begin
      match st.rvc with
      | Some rvc -> Gclock.set d.reg rvc s (GE.clock e)
      | None -> assert false
    end
    else begin
      epoch_op d;
      if GE.leq_clock d.reg st.r ct then st.r <- e
      else begin
        (* READ SHARE: both reads recorded in a slot-indexed clock *)
        let rvc =
          match st.rvc with
          | Some rvc ->
            Gclock.reset rvc;
            rvc
          | None ->
            let rvc = Gclock.create () in
            d.stats.vc_allocs <- d.stats.vc_allocs + 1;
            st.rvc <- Some rvc;
            rvc
        in
        Gclock.set d.reg rvc (GE.slot st.r) (GE.clock st.r);
        Gclock.set d.reg rvc s (GE.clock e);
        st.shared <- true
      end
    end
  end

let write d ~index t x =
  let st = var_state d x in
  let s = thread_slot d t in
  let e = d.epochs.(s) in
  epoch_op d;
  if GE.equal st.w e then ()
  else begin
    let ct = d.clocks.(s) in
    epoch_op d;
    if not (GE.leq_clock d.reg st.w ct) then
      report d st ~tid:t ~index ~prior:(prior_of d st.w) Warning.Write_write;
    if not st.shared then begin
      epoch_op d;
      if not (GE.leq_clock d.reg st.r ct) then
        report d st ~tid:t ~index ~prior:(prior_of d st.r)
          Warning.Read_write
    end
    else begin
      (match st.rvc with
      | Some rvc -> (
        vc_op d;
        match shared_prior d rvc ct with
        | Some prior ->
          report d st ~tid:t ~index ~prior Warning.Read_write
        | None -> ())
      | None -> assert false);
      if d.config.Config.read_demotion then begin
        st.shared <- false;
        st.r <- GE.bottom
      end
    end;
    st.w <- e
  end

let on_event d ~index e =
  Stats.count_event d.stats e;
  match e with
  | Event.Read { t; x } -> read d ~index t x
  | Event.Write { t; x } -> write d ~index t x
  | Event.Acquire { t; m } -> on_acquire d t m
  | Event.Release { t; m } -> on_release d t m
  | Event.Fork { t; u } -> on_fork d t u
  | Event.Join { t; u } -> on_join d t u
  | Event.Volatile_read { t; v } -> on_volatile_read d t v
  | Event.Volatile_write { t; v } -> on_volatile_write d t v
  | Event.Barrier_release { threads } -> on_barrier d threads
  | Event.Txn_begin _ | Event.Txn_end _ -> ()

let warnings d = Race_log.warnings d.log
let witnesses d = Race_log.witnesses d.log
let stats d = d.stats
let slot_count d = Slot_registry.slot_count d.reg
let live_threads d = List.length (Slot_registry.live_tids d.reg)
