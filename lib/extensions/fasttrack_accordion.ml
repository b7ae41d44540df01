let name = "FastTrack+Accordion"

(* The tid -> slot renaming is sequential state: it cannot run against
   a shared Sync_timeline, so Driver.run_parallel runs it sequentially. *)
let shares_clocks = false

(* One tenure of a slot: its owner from trace position [from] on, and
   [base], the slot's own clock just before that owner's first step
   (the owner's clock counts from [base + 1]). *)
type tenure = { from : int; tid : Tid.t; base : int }

type t = {
  ft : Fasttrack.t;  (* runs over slots, not tids *)
  mutable slot_of : int array;  (* tid -> slot; -1 = unassigned *)
  mutable live : Tid.t list;  (* assigned a slot and not yet joined *)
  mutable tenures : tenure list array;  (* per slot, newest first *)
  mutable nslots : int;
  mutable free : int list;  (* recycled slots, reused LIFO *)
  mutable pending : (int * int) list;
      (* joined slots and their final own clocks, newest first *)
}

let create config =
  (* the recorder's history would name slots; Accordion records none *)
  { ft = Fasttrack.create (Config.with_recorder Obs_recorder.disabled config);
    slot_of = [||];
    live = [];
    tenures = [||];
    nslots = 0;
    free = [];
    pending = [] }

let grow a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let own_clock d s = Epoch.clock (Fasttrack.current_epoch d.ft s)

(* The thread's slot, assigned on its first mention.  A recycled slot
   keeps its clock: the FT JOIN that retired the previous owner left
   it one above every epoch that owner used, and the new owner's
   forking parent already knows the old owner's final clock. *)
let slot d ~index t =
  if t >= Array.length d.slot_of then
    d.slot_of <- grow d.slot_of (t + 1) (-1);
  let s = d.slot_of.(t) in
  if s >= 0 then s
  else begin
    let s =
      match d.free with
      | s :: rest ->
        d.free <- rest;
        s
      | [] ->
        let s = d.nslots in
        if s >= Array.length d.tenures then
          d.tenures <- grow d.tenures (s + 1) [];
        d.nslots <- s + 1;
        s
    in
    d.slot_of.(t) <- s;
    d.live <- t :: d.live;
    d.tenures.(s) <-
      { from = index; tid = t; base = own_clock d s - 1 } :: d.tenures.(s);
    s
  end

let rename d ~index e =
  match e with
  | Event.Read { t; x } -> Event.Read { t = slot d ~index t; x }
  | Event.Write { t; x } -> Event.Write { t = slot d ~index t; x }
  | Event.Acquire { t; m } -> Event.Acquire { t = slot d ~index t; m }
  | Event.Release { t; m } -> Event.Release { t = slot d ~index t; m }
  | Event.Fork { t; u } ->
    let t = slot d ~index t in
    Event.Fork { t; u = slot d ~index u }
  | Event.Join { t; u } ->
    let t = slot d ~index t in
    Event.Join { t; u = slot d ~index u }
  | Event.Volatile_read { t; v } ->
    Event.Volatile_read { t = slot d ~index t; v }
  | Event.Volatile_write { t; v } ->
    Event.Volatile_write { t = slot d ~index t; v }
  | Event.Barrier_release { threads } ->
    Event.Barrier_release { threads = List.map (slot d ~index) threads }
  | Event.Txn_begin _ | Event.Txn_end _ -> e

(* Recycle every queued slot whose final clock all live threads know:
   the dead owner's accesses are then ordered before everything that
   can still happen. *)
let collect d =
  let ready, waiting =
    List.partition
      (fun (s, final) ->
        List.for_all
          (fun w -> Fasttrack.clock_entry d.ft d.slot_of.(w) s >= final)
          d.live)
      d.pending
  in
  d.pending <- waiting;
  List.iter
    (fun (s, _) ->
      d.slot_of.((List.hd d.tenures.(s)).tid) <- -1;
      d.free <- s :: d.free)
    ready

let on_event d ~index e =
  let renamed = rename d ~index e in
  match e with
  | Event.Join { t = _; u } ->
    let su = d.slot_of.(u) in
    let final = own_clock d su in
    Fasttrack.on_event d.ft ~index renamed;
    if List.mem u d.live then begin
      d.live <- List.filter (fun w -> not (Tid.equal w u)) d.live;
      d.pending <- (su, final) :: d.pending
    end;
    collect d
  | _ -> Fasttrack.on_event d.ft ~index renamed

(* The slot's owner at [index], and that owner's clock offset.  A prior
   access by an earlier owner of the slot was collected, so it is
   ordered before everything and never the racing one. *)
let tenure d s index = List.find (fun o -> o.from <= index) d.tenures.(s)

let warnings d =
  List.map
    (fun (w : Warning.t) ->
      let prior =
        Option.map
          (fun (p : Warning.prior) ->
            let o = tenure d p.prior_tid w.index in
            { Warning.prior_tid = o.tid; prior_clock = p.prior_clock - o.base })
          w.prior
      in
      { w with tid = (tenure d w.tid w.index).tid; prior })
    (Fasttrack.warnings d.ft)

(* FastTrack's witnesses hold slot-indexed clocks *)
let witnesses _ = []
let stats d = Fasttrack.stats d.ft
let slot_count d = d.nslots
let live_threads d = List.length d.live
