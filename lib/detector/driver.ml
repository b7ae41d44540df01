type shard_info = {
  shard_id : int;
  shard_accesses : int;
  shard_wall : float;
  shard_warnings : int;
}

type result = {
  tool : string;
  warnings : Warning.t list;
  witnesses : Witness.t list;
  stats : Stats.t;
  cpu : float;
  wall : float;
  prefix_wall : float;
  shards : shard_info array;
  imbalance : float;
  slots : int;
}

let prefix_frac r = if r.wall > 0. then r.prefix_wall /. r.wall else 0.

let time f =
  let start = Sys.time () in
  let x = f () in
  (x, Sys.time () -. start)

(* Post-run registry bookkeeping shared by both drivers.  Cold path:
   only reached once per run, and only does work when [obs] is
   enabled. *)
let finish_metrics obs (stats : Stats.t) ~wall =
  if Obs.is_enabled obs then begin
    Obs.bump obs "driver.runs" 1;
    Obs.bump obs "driver.events" stats.Stats.events;
    Obs.bump obs "driver.accesses" (stats.Stats.reads + stats.Stats.writes);
    Obs.bump obs "driver.eliminated" stats.Stats.eliminated;
    Obs.observe obs "driver.run_wall_s" wall;
    (* cross-check channel for Table 3: the hand-counted shadow words
       next to the GC's own view of the heap (see the "gc" samples) *)
    Obs.set_gauge obs "stats.peak_words" (float_of_int stats.Stats.peak_words);
    Obs.set_gauge obs "stats.state_words"
      (float_of_int stats.Stats.state_words)
  end

(* Flatten a detector's live counters into the plain record the
   telemetry bus publishes.  Only ever called on the domain that owns
   [st] (the hot loop's own ticker, at publish granularity), so the
   unsynchronized reads are safe; a torn read across fields would only
   smear one snapshot anyway. *)
let live_counts (st : Stats.t) ~extra_elim ~warnings =
  { Obs_snapshot.events = st.Stats.events;
    reads = st.Stats.reads;
    writes = st.Stats.writes;
    syncs = st.Stats.syncs;
    eliminated = st.Stats.eliminated + extra_elim;
    epoch_ops = st.Stats.epoch_ops;
    vc_ops = st.Stats.vc_ops;
    state_words = st.Stats.state_words;
    warnings }

(* Final live record, from the same merged counters the --metrics
   export writes — the stream's cumulative totals must equal the
   ftrace.obs/1 document to the last integer.  [prof] (the run's
   merged profiler, if any) contributes the final hot-variable
   standings. *)
let finish_live ?(prof = Obs_prof.disabled) live r ~wall =
  if Obs_live.is_enabled live then
    Obs_live.finish live ~wall
      ~top_vars:(Obs_prof.hot_alist ~k:8 prof)
      ~fields:(Stats.fields_alist r.stats)
      ~rules:(Stats.rules_alist r.stats)
      ~warnings:(List.length r.warnings)

(* Flight-recorder footprint gauges: cold, and only when both the
   registry and the recorder are on (the default run has neither). *)
let recorder_gauges obs recorder =
  if Obs.is_enabled obs && Obs_recorder.is_enabled recorder then begin
    Obs.set_gauge obs "recorder.vars_tracked"
      (float_of_int (Obs_recorder.vars_tracked recorder));
    Obs.set_gauge obs "recorder.recorded"
      (float_of_int (Obs_recorder.recorded recorder));
    Obs.set_gauge obs "recorder.dropped"
      (float_of_int (Obs_recorder.dropped recorder));
    Obs.set_gauge obs "recorder.approx_words"
      (float_of_int (Obs_recorder.approx_words recorder))
  end

let run_packed ?(obs = Obs.disabled) ?(live = Obs_live.disabled)
    ?(prof = Obs_prof.disabled) ?skip packed tr =
  (* Select the event-loop body once, outside the loop: the disabled
     path is byte-for-byte the pre-observability loop. *)
  let handler = Detector.packed_handler packed in
  let on_event =
    if Obs.is_enabled obs then (fun index e ->
        handler index e;
        Obs.tick obs)
    else handler
  in
  (* Sound check elimination (Config.static_elim): accesses to
     statically-certified variables never reach the detector.  Access
     events cannot modify the sync state, so the detector's view of
     every *other* variable is unchanged — warnings and witnesses stay
     byte-identical. *)
  let eliminated = ref 0 in
  let on_event =
    match skip with
    | None -> on_event
    | Some certified ->
      fun index e ->
        (match e with
        | (Event.Read { x; _ } | Event.Write { x; _ }) when certified x ->
          incr eliminated
        | _ -> on_event index e)
  in
  (* Live telemetry: the sequential driver owns a contiguous loop, so
     instead of wrapping [on_event] it re-chunks the iteration —
     [iter_range] over [tick_events]-sized windows with a publish
     between windows.  The hot loop stays the exact uninstrumented
     handler; the enabled-mode cost is entirely off the per-event
     path.  The sequential run has no collector domain, so the
     publish is standalone — it drives emission itself. *)
  let iterate =
    let st = Detector.packed_stats packed in
    let pub = Obs_live.publisher live ~worker:0 in
    match
      Obs_live.pub_chunk ~standalone:true pub
        ~current:(fun () ->
          live_counts st ~extra_elim:!eliminated
            ~warnings:(List.length (Detector.packed_warnings packed)))
        ~rules:(fun () -> Stats.rules_alist st)
        ~vars:(fun () -> Obs_prof.hot_alist ~k:8 prof)
    with
    | None -> fun () -> Trace.iteri on_event tr
    | Some (chunk, publish) ->
      fun () ->
        let n = Trace.length tr in
        let rec go lo =
          if lo < n then begin
            let hi = min n (lo + chunk) in
            Trace.iter_range ~lo ~hi on_event tr;
            publish ();
            go hi
          end
        in
        go 0
  in
  Obs_live.set_phase live "analyze";
  Obs.gc_sample obs;
  let cpu0 = Sys.time () in
  let (), wall =
    Par_run.wall_time (fun () -> Obs.span obs "analyze" iterate)
  in
  let cpu = Sys.time () -. cpu0 in
  Obs.gc_sample_full obs;
  let stats = Detector.packed_stats packed in
  stats.Stats.eliminated <- stats.Stats.eliminated + !eliminated;
  (* End-of-run shadow census (cold: one walk of the final shadow
     state, only when profiling is on). *)
  Obs_prof.take_census prof;
  finish_metrics obs stats ~wall;
  let r =
    { tool = Detector.packed_name packed;
      warnings = Detector.packed_warnings packed;
      witnesses = Detector.packed_witnesses packed;
      stats;
      cpu;
      wall;
      prefix_wall = 0.;
      shards = [||];
      imbalance = 1.0;
      slots = 1 }
  in
  finish_live ~prof live r ~wall;
  r

let run ?(config = Config.default) d tr =
  let r =
    run_packed ~obs:config.Config.obs ~live:config.Config.live
      ~prof:config.Config.prof ?skip:config.Config.static_elim
      (Detector.instantiate d config) tr
  in
  recorder_gauges config.Config.obs config.Config.recorder;
  r

(* ------------------------------------------------------------------ *)
(* Work-stealing driver: shared sync timeline + dynamic item queue.   *)

let default_jobs = Domain_pool.recommended_jobs

(* The timeline's build cost, folded into the merged stats so the
   stealing run's totals remain comparable with the sequential run's:
   its events are exactly the non-access events the items never see
   (merged [events] = accesses + sync + other = trace length), and its
   vc_ops/vc_allocs/words are the one shared sync replay. *)
let stats_of_timeline (ts : Sync_timeline.stats) =
  let s = Stats.create () in
  s.Stats.events <- ts.Sync_timeline.sync_events + ts.Sync_timeline.other_events;
  s.Stats.syncs <- ts.Sync_timeline.sync_events;
  s.Stats.vc_ops <- ts.Sync_timeline.vc_ops;
  s.Stats.vc_allocs <- ts.Sync_timeline.vc_allocs;
  Stats.add_words s ts.Sync_timeline.words;
  s

let timeline_gauges obs (ts : Sync_timeline.stats) =
  if Obs.is_enabled obs then begin
    Obs.bump obs "timeline.sync_events" ts.Sync_timeline.sync_events;
    Obs.bump obs "timeline.checkpoints" ts.Sync_timeline.checkpoints;
    Obs.bump obs "timeline.snapshot_hits" ts.Sync_timeline.snapshot_hits;
    Obs.set_gauge obs "timeline.words" (float_of_int ts.Sync_timeline.words)
  end

(* One work item: a fresh detector instance over the item's access
   events, resolving sync lookups against the shared timeline (the
   item config's [sync_source]).  Cursor state is private to the
   instance, so items are safe to run concurrently. *)
let analyze_item ?(obs = Obs.disabled) ?(pub = Obs_live.pub_disabled)
    (module D : Detector.S) item_config (s : Shard.t) =
  let start = Obs.now obs in
  let (warnings, witnesses, stats, prof_view), item_wall =
    Par_run.wall_time (fun () ->
        (* A private profiler view per item (items own disjoint
           objects, hence disjoint cells), created here on the worker
           domain; merged on the main domain after the region. *)
        let prof_view = Obs_prof.shard_view item_config.Config.prof in
        let item_config = Config.with_prof prof_view item_config in
        let d = D.create item_config in
        let on_event index e = D.on_event d ~index e in
        (* The worker's live publisher outlives items: completed items
           are folded into its accumulated counts ([pub_fold]), the
           in-flight one is read through [current] — both on the
           worker's own domain. *)
        let on_event =
          let st = D.stats d in
          match
            Obs_live.pub_ticker pub
              ~current:(fun () ->
                live_counts st ~extra_elim:0
                  ~warnings:(List.length (D.warnings d)))
              ~rules:(fun () -> Stats.rules_alist st)
              ~vars:(fun () -> Obs_prof.hot_alist ~k:8 prof_view)
          with
          | None -> on_event
          | Some tick ->
            fun index e ->
              on_event index e;
              tick ()
        in
        Shard.iteri on_event s;
        let stats = D.stats d in
        let warnings = D.warnings d in
        Obs_prof.take_census prof_view;
        Obs_live.pub_fold pub
          ~vars:(Obs_prof.hot_alist ~k:8 prof_view)
          ~counts:
            (live_counts stats ~extra_elim:0
               ~warnings:(List.length warnings))
          ~rules:(Stats.rules_alist stats);
        (warnings, D.witnesses d, stats, prof_view))
  in
  Obs.record_span obs
    ~name:(Printf.sprintf "item-%d" s.Shard.shard_id)
    ~start ~duration:item_wall
    ~attrs:
      [ ("accesses", Obs_span.Int s.Shard.accesses);
        ("warnings", Obs_span.Int (List.length warnings)) ]
    ();
  (warnings, witnesses, stats, item_wall, prof_view)

let run_stealing ?(config = Config.default) ~jobs d tr =
  let (module D : Detector.S) = d in
  let obs = config.Config.obs in
  let live = config.Config.live in
  Obs.gc_sample obs;
  let cpu0 = Sys.time () in
  let result, wall =
    (* The prefix (routing + timeline) is part of the measured wall
       time: it is real Amdahl cost of this plan, and charging it
       keeps the jobs-sweep speedups honest. *)
    Par_run.wall_time (fun () ->
        (* The prefix is itself parallel now (segmented routing with a
           pipelined timeline build, see Prefix): what remains serial
           is the sync replay — ~3% of the trace — and the stitch.
           Under the stealing plan, elimination happens at routing
           time: certified accesses never even enter a work item. *)
        Obs_live.set_phase live "prefix";
        let prefix =
          Prefix.build ~obs ?skip:config.Config.static_elim ~jobs tr
        in
        let plan = prefix.Prefix.plan in
        let prepass = prefix.Prefix.prepass in
        let timeline = prefix.Prefix.timeline in
        timeline_gauges obs (Sync_timeline.stats timeline);
        (* The prefix's work — timeline replay events and routed-out
           (eliminated) accesses — is owned by no worker; publish it
           as the bus base so mid-run progress accounts for it. *)
        if Obs_live.is_enabled live then
          Obs_live.set_base live
            (live_counts
               (stats_of_timeline (Sync_timeline.stats timeline))
               ~extra_elim:prepass.Shard.pp_eliminated ~warnings:0);
        Obs_live.set_phase live "analyze";
        (* Empty items (slots owning no live object) are dropped, not
           scheduled; LPT order is preserved. *)
        let items =
          Array.of_seq
            (Seq.filter
               (fun s -> Shard.length s > 0)
               (Array.to_seq plan.Shard.shards))
        in
        let item_config = Config.with_sync_source timeline config in
        (* One live publisher per worker, created up front on the
           calling domain; workers only touch their own. *)
        let pubs =
          Array.init (max 1 jobs) (fun w ->
              Obs_live.publisher live ~worker:w)
        in
        let (item_results, claimed), _region_wall =
          Obs_live.with_collector live (fun () ->
              Par_run.queue ~obs ~jobs ~tasks:(Array.length items)
                (fun ~worker ~task ->
                  analyze_item ~obs ~pub:pubs.(worker) (module D)
                    item_config items.(task)))
        in
        Obs_live.set_phase live "merge";
        (* Fold each item's private profiler view back into the parent
           (disjoint cells: a move).  No-op when profiling is off. *)
        Array.iter
          (fun (_, _, _, _, prof_view) ->
            Obs_prof.merge ~into:config.Config.prof prof_view)
          item_results;
        Obs.span obs "merge" (fun () ->
            (* Per-worker accounting, summed over the items each
               worker claimed. *)
            let shards =
              Array.mapi
                (fun w ids ->
                  let acc = ref 0 and walls = ref 0. and warns = ref 0 in
                  List.iter
                    (fun id ->
                      let w, _, (s : Stats.t), item_wall, _ =
                        item_results.(id)
                      in
                      acc := !acc + s.Stats.reads + s.Stats.writes;
                      walls := !walls +. item_wall;
                      warns := !warns + List.length w)
                    ids;
                  { shard_id = w;
                    shard_accesses = !acc;
                    shard_wall = !walls;
                    shard_warnings = !warns })
                claimed
            in
            let imbalance =
              Shard.imbalance_of_counts
                (Array.map (fun si -> si.shard_accesses) shards)
            in
            let results = Array.to_list item_results in
            (* Items own disjoint objects, hence disjoint shadow keys,
               and at most one warning is recorded per key: warning
               trace indices are globally unique across items, so
               sorting by index reconstructs the sequential
               chronological list exactly, whatever the pull order. *)
            let warnings =
              List.concat_map (fun (w, _, _, _, _) -> w) results
              |> List.stable_sort Warning.compare
            in
            let witnesses =
              List.concat_map (fun (_, ws, _, _, _) -> ws) results
              |> List.stable_sort (fun (a : Witness.t) b ->
                     Int.compare a.Witness.index b.Witness.index)
            in
            let stats =
              let tl_stats = stats_of_timeline (Sync_timeline.stats timeline) in
              (* the routed-out accesses are charged to the serial
                 prefix component, mirroring where they were dropped *)
              tl_stats.Stats.eliminated <- prepass.Shard.pp_eliminated;
              Stats.sum
                (tl_stats :: List.map (fun (_, _, s, _, _) -> s) results)
            in
            fun cpu wall ->
              { tool = D.name;
                warnings;
                witnesses;
                stats;
                cpu;
                wall;
                prefix_wall = prefix.Prefix.wall;
                shards;
                imbalance;
                slots = plan.Shard.slots }))
  in
  let cpu = Sys.time () -. cpu0 in
  let result = result cpu wall in
  Obs.gc_sample_full obs;
  finish_metrics obs result.stats ~wall;
  if Obs.is_enabled obs then begin
    Obs.set_gauge obs "shard.slots" (float_of_int result.slots);
    Obs.set_gauge obs "shard.imbalance" result.imbalance;
    (* The Amdahl accounting the bench harness and CI gate read:
       absolute prefix wall and its fraction of the run. *)
    Obs.set_gauge obs "prefix.frac" (prefix_frac result)
  end;
  finish_live ~prof:config.Config.prof live result ~wall;
  result

let run_parallel ?(config = Config.default) ?jobs d tr =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  let (module D : Detector.S) = d in
  (* The stealing plan requires every sync lookup to go through the
     shared timeline.  The flight recorder needs the sync events in
     program order (its held-lock picture keeps acquisition order), so
     recorder runs, like non-clock-sharing detectors, run
     sequentially. *)
  if D.shares_clocks && not (Obs_recorder.is_enabled config.Config.recorder)
  then run_stealing ~config ~jobs d tr
  else run ~config d tr

(* ------------------------------------------------------------------ *)
(* Metrics-document assembly (the [--metrics FILE] payload).          *)

let shard_info_json si =
  Obs_json.obj
    [ ("shard", Obs_json.int si.shard_id);
      ("accesses", Obs_json.int si.shard_accesses);
      ("wall_s", Obs_json.float si.shard_wall);
      ("warnings", Obs_json.int si.shard_warnings) ]

let result_json ?(source = "") r =
  Obs_json.obj
    [ ("tool", Obs_json.str r.tool);
      ("source", Obs_json.str source);
      ("jobs", Obs_json.int (max 1 (Array.length r.shards)));
      ("plan",
       Obs_json.str
         (if Array.length r.shards > 0 then "stealing" else "sequential"));
      ("slots", Obs_json.int r.slots);
      ("warnings", Obs_json.int (List.length r.warnings));
      ("witnesses", Obs_json.int (List.length r.witnesses));
      ("cpu_s", Obs_json.float r.cpu);
      ("wall_s", Obs_json.float r.wall);
      ("prefix_wall_s", Obs_json.float r.prefix_wall);
      ("prefix_frac", Obs_json.float (prefix_frac r));
      ("imbalance", Obs_json.float r.imbalance);
      ("shards", Obs_json.arr (Array.to_list (Array.map shard_info_json r.shards)));
      ("stats",
       Obs_json.obj
         (List.map
            (fun (k, v) -> (k, Obs_json.int v))
            (Stats.fields_alist r.stats)));
      ("rules",
       Obs_json.obj
         (List.map
            (fun (k, v) -> (k, Obs_json.int v))
            (Stats.rules_alist r.stats))) ]

let export_metrics ?source ~obs r =
  Obs_export.to_string ~extra:[ ("run", result_json ?source r) ] obs

let write_metrics ?source ~obs ~path r =
  Obs_export.write_file ~path
    ~extra:[ ("run", result_json ?source r) ]
    obs

(* ------------------------------------------------------------------ *)

(* A volatile-ish sink the optimizer cannot delete. *)
let sink = ref 0

let replay ?(repeat = 1) tr =
  let (), elapsed =
    Obs_clock.wall_time (fun () ->
        for _ = 1 to repeat do
          Trace.iter
            (fun e -> if Event.is_access e then sink := !sink + 1)
            tr
        done)
  in
  elapsed /. float_of_int repeat

let warning_count r = List.length r.warnings
