(* Sync_timeline's contract: its lookups reproduce, at every trace
   position, exactly the synchronization state a sequential [Vc_state]
   replay would have accumulated — clocks, epochs, held-lock sets and
   barrier generations.  This is the load-bearing invariant behind the
   work-stealing plan's byte-identical warnings: the proof in
   DESIGN.md reduces seq ≡ par to "the timeline is a faithful oracle
   for the sync prefix", and this suite checks that oracle
   property-style over generated feasible traces plus every built-in
   workload. *)

module VC = Vector_clock

let gen_params : (string * Trace_gen.params) list =
  [ ( "mixed",
      { Trace_gen.threads = 4; vars = 6; locks = 3; volatiles = 2;
        length = 300; profile = Trace_gen.Mixed; barriers = true } );
    ( "synchronized",
      { Trace_gen.threads = 3; vars = 4; locks = 2; volatiles = 1;
        length = 250; profile = Trace_gen.Synchronized; barriers = false } );
    ( "racy",
      { Trace_gen.threads = 5; vars = 8; locks = 1; volatiles = 1;
        length = 350; profile = Trace_gen.Racy; barriers = true } ) ]

let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34 ]

(* The timeline the stealing driver builds (one segment, calling
   domain). *)
let timeline tr = (Prefix.build ~jobs:1 tr).Prefix.timeline

(* At every prefix boundary [i] (state after events [0 .. i-1]), the
   timeline's clock and epoch lookups at [~index:i] must equal the
   live replayed [Vc_state]'s.  [VC.to_list] trims trailing zeros, so
   the comparison is representation-independent. *)
let check_oracle name tr =
  let tl = timeline tr in
  let cur = Sync_timeline.cursor tl in
  let nthreads = Sync_timeline.thread_count tl in
  let st = Vc_state.create (Stats.create ()) in
  let held = Array.make nthreads [] in
  let barrier_gen = ref 0 in
  let len = Trace.length tr in
  for i = 0 to len do
    for t = 0 to nthreads - 1 do
      let live = VC.to_list (Vc_state.clock st t) in
      let shared = VC.to_list (Sync_timeline.clock cur ~index:i t) in
      if live <> shared then
        Alcotest.failf "%s: clock mismatch at index %d, thread %d" name i
          t;
      if Vc_state.epoch st t <> Sync_timeline.epoch cur ~index:i t then
        Alcotest.failf "%s: epoch mismatch at index %d, thread %d" name i
          t;
      let _, locks = Sync_timeline.held_locks cur ~index:i t in
      if List.sort compare held.(t) <> locks then
        Alcotest.failf "%s: held-lock mismatch at index %d, thread %d"
          name i t
    done;
    if Sync_timeline.barrier_generation cur ~index:i <> !barrier_gen then
      Alcotest.failf "%s: barrier generation mismatch at index %d" name i;
    if i < len then begin
      let e = Trace.get tr i in
      ignore (Vc_state.handle_sync st e);
      match e with
      | Event.Acquire { t; m } -> held.(t) <- m :: held.(t)
      | Event.Release { t; m } ->
        held.(t) <- List.filter (fun m' -> m' <> m) held.(t)
      | Event.Barrier_release _ -> incr barrier_gen
      | _ -> ()
    end
  done

let test_generated () =
  List.iter
    (fun (pname, params) ->
      List.iter
        (fun seed ->
          let tr = Trace_gen.generate ~seed params in
          Alcotest.(check int)
            (Printf.sprintf "%s/%d: generated trace is valid" pname seed)
            0
            (List.length (Validity.check tr));
          check_oracle (Printf.sprintf "%s/seed %d" pname seed) tr)
        seeds)
    gen_params

let test_workloads () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      check_oracle w.name tr)
    Workloads.all

(* Stamp semantics: for one thread, equal stamps always denote the
   identical held-lock list — the contract [Lockset.Held_view]'s
   memoization relies on. *)
let test_stamps () =
  let tr =
    Trace_gen.generate ~seed:42
      { Trace_gen.default with
        Trace_gen.threads = 3; vars = 4; locks = 3; length = 300;
        profile = Trace_gen.Mixed; barriers = false }
  in
  let tl = timeline tr in
  let cur = Sync_timeline.cursor tl in
  let memo = Hashtbl.create 64 in
  for i = 0 to Trace.length tr do
    for t = 0 to Sync_timeline.thread_count tl - 1 do
      let stamp, locks = Sync_timeline.held_locks cur ~index:i t in
      match Hashtbl.find_opt memo (t, stamp) with
      | None -> Hashtbl.add memo (t, stamp) locks
      | Some prev ->
        if prev <> locks then
          Alcotest.failf
            "thread %d stamp %d maps to two different lock sets" t stamp
    done
  done

(* Cursor index regressions are legal (a fresh item may start behind a
   previous item's last lookup): compare a deliberately non-monotone
   query sequence against fresh-cursor answers. *)
let test_regression () =
  let tr =
    Trace_gen.generate ~seed:9
      { Trace_gen.default with
        Trace_gen.threads = 4; length = 300; profile = Trace_gen.Mixed;
        barriers = true }
  in
  let tl = timeline tr in
  let cur = Sync_timeline.cursor tl in
  let len = Trace.length tr in
  let indices =
    [ len; 1; len / 2; len / 2; 3; len - 1; 0; len / 3; len ]
  in
  List.iter
    (fun i ->
      let i = max 0 (min len i) in
      for t = 0 to Sync_timeline.thread_count tl - 1 do
        let fresh = Sync_timeline.cursor tl in
        let a = VC.to_list (Sync_timeline.clock cur ~index:i t) in
        let b = VC.to_list (Sync_timeline.clock fresh ~index:i t) in
        if a <> b then
          Alcotest.failf "regression: clock mismatch at index %d thread %d"
            i t;
        let _, la = Sync_timeline.held_locks cur ~index:i t in
        let _, lb = Sync_timeline.held_locks fresh ~index:i t in
        if la <> lb then
          Alcotest.failf
            "regression: held-lock mismatch at index %d thread %d" i t
      done;
      let fresh = Sync_timeline.cursor tl in
      if
        Sync_timeline.barrier_generation cur ~index:i
        <> Sync_timeline.barrier_generation fresh ~index:i
      then Alcotest.failf "regression: barrier mismatch at index %d" i)
    indices

(* Every distinct clock snapshot the cursor hands out over a whole
   trace, per thread, in order of first appearance.  A checkpoint at
   sync index [j] is visible at [j + 1], so this is every checkpoint. *)
let snapshots tl len =
  let cur = Sync_timeline.cursor tl in
  List.init (Sync_timeline.thread_count tl) (fun t ->
      let seen = ref [] in
      for i = 0 to len do
        let v = Sync_timeline.clock cur ~index:i t in
        match !seen with
        | prev :: _ when prev == v -> ()
        | _ -> seen := v :: !seen
      done;
      List.rev !seen)
  |> List.concat

(* No two checkpoints of a timeline are structurally equal — the
   invariant that makes interning pointless: a thread's clock only
   grows and [C_u(t) < C_t(t)] for [u <> t], so the skip-if-unchanged
   check already shares every snapshot that could be shared. *)
let check_distinct name tr =
  let tl = timeline tr in
  let snaps = snapshots tl (Trace.length tr) in
  Alcotest.(check int)
    (name ^ ": every checkpoint is visible")
    (Sync_timeline.stats tl).Sync_timeline.checkpoints (List.length snaps);
  let by_content = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let key = VC.to_list v in
      if Hashtbl.mem by_content key then
        Alcotest.failf "%s: two checkpoints hold the clock %s" name
          (Format.asprintf "%a" VC.pp v);
      Hashtbl.add by_content key ())
    snaps

let test_distinct_checkpoints () =
  List.iter
    (fun (pname, params) ->
      List.iter
        (fun seed ->
          check_distinct
            (Printf.sprintf "%s/seed %d" pname seed)
            (Trace_gen.generate ~seed params))
        seeds)
    gen_params;
  List.iter
    (fun (w : Workload.t) ->
      check_distinct w.name (Workload.trace ~seed:11 ~scale:1 w))
    Workloads.all

(* Skip-if-unchanged shares: wherever a thread's clock is unchanged
   between two adjacent positions, both lookups return the one
   snapshot, and on a barrier workload such skips happen. *)
let test_sharing () =
  let w = Option.get (Workloads.find "moldyn") in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let tl = timeline tr in
  let a = Sync_timeline.cursor tl and b = Sync_timeline.cursor tl in
  for i = 0 to Trace.length tr - 1 do
    for t = 0 to Sync_timeline.thread_count tl - 1 do
      let before = Sync_timeline.clock a ~index:i t in
      let after = Sync_timeline.clock b ~index:(i + 1) t in
      if VC.equal before after && before != after then
        Alcotest.failf "thread %d: unchanged clock at %d copied" t i
    done
  done;
  let s = Sync_timeline.stats tl in
  Alcotest.(check bool) "unchanged clocks are skipped on a barrier workload"
    true
    (s.Sync_timeline.snapshot_hits > 0);
  Alcotest.(check bool) "timeline reports a footprint" true
    (s.Sync_timeline.words > 0);
  let _, _, other = Trace.counts tr in
  Alcotest.(check bool) "sync+other events accounted" true
    (s.Sync_timeline.sync_events + s.Sync_timeline.other_events = other)

let suite =
  ( "timeline",
    [ Alcotest.test_case "oracle ≡ Vc_state on generated traces" `Quick
        test_generated;
      Alcotest.test_case "oracle ≡ Vc_state on every workload" `Quick
        test_workloads;
      Alcotest.test_case "held-lock stamps are canonical" `Quick
        test_stamps;
      Alcotest.test_case "cursor index regressions" `Quick
        test_regression;
      Alcotest.test_case "no two checkpoints are equal" `Quick
        test_distinct_checkpoints;
      Alcotest.test_case "snapshot sharing" `Quick test_sharing ] )
