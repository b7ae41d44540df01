(* The sampling tier (lib/sampling): FastTrack equivalence at rate
   1.0 (verdicts and every counter), the recorder documenting the
   whole trace at any rate, seq/parallel determinism of the seeded
   sampling policy, soundness (sampled warnings only ever name truly
   racy variables), and the repeated-runs recall guarantee the A9 CI
   gate enforces. *)

let warning : Warning.t Alcotest.testable =
  Alcotest.testable Warning.pp (fun (a : Warning.t) b -> a = b)

let warnings_t = Alcotest.list warning

let witness : Witness.t Alcotest.testable =
  Alcotest.testable Witness.pp (fun (a : Witness.t) b -> a = b)

let witnesses_t = Alcotest.list witness

let config ~rate ~budget ~seed =
  Config.with_sampling { Config.rate; budget; seed } Config.default

(* -- rate 1.0 ≡ FastTrack ------------------------------------------ *)

let full_rate = config ~rate:1.0 ~budget:0 ~seed:7

(* Every counter but the sampler's own two: the coin is the only code
   in front of FastTrack, so at rate 1.0 rule hits, VC/epoch ops,
   allocations and shadow words are FastTrack's too. *)
let counters (s : Stats.t) =
  ( List.filter
      (fun (name, _) -> name <> "sampled" && name <> "skipped")
      (Stats.fields_alist s),
    List.sort compare (Stats.rules_alist s) )

let sampling_full_rate_is_fasttrack tr =
  let ft = Driver.run (module Fasttrack) tr in
  List.iter
    (fun d ->
      let sp = Driver.run ~config:full_rate d tr in
      Alcotest.check warnings_t "warnings ≡ FastTrack at rate 1.0"
        ft.Driver.warnings sp.Driver.warnings;
      Alcotest.check witnesses_t "witnesses ≡ FastTrack at rate 1.0"
        ft.Driver.witnesses sp.Driver.witnesses;
      Alcotest.(check (pair (list (pair string int)) (list (pair string int))))
        "stats ≡ FastTrack at rate 1.0" (counters ft.Driver.stats)
        (counters sp.Driver.stats))
    [ (module Sampling_ft : Detector.S);
      (module Sampling_period : Detector.S) ];
  true

let qtest_full_rate =
  Helpers.qtest ~count:80 "sampling at rate 1.0 ≡ FastTrack"
    sampling_full_rate_is_fasttrack

(* -- the recorder documents the trace, not the sample -------------- *)

(* At rate 0.02 almost every access skips FastTrack's analysis, yet
   the flight recorder must hold exactly the rings a FastTrack run
   fills — sequentially and under --jobs (recorder runs fall back to
   the sequential driver). *)
let recorder_rings r =
  List.map (fun key -> (key, Obs_recorder.entries r ~key)) (Obs_recorder.keys r)

let test_recorder_rings_match () =
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let tr = Workload.trace ~seed:11 ~scale:1 w in
      List.iter
        (fun jobs ->
          let rings d config =
            let recorder = Obs_recorder.create () in
            ignore
              (Driver.run_parallel
                 ~config:(Config.with_recorder recorder config)
                 ~jobs d tr);
            recorder_rings recorder
          in
          let ft = rings (module Fasttrack) Config.default in
          let sp =
            rings (module Sampling_ft) (config ~rate:0.02 ~budget:0 ~seed:1)
          in
          let label = Printf.sprintf "%s -j %d" name jobs in
          Alcotest.(check bool) (label ^ ": rings recorded") true (ft <> []);
          Alcotest.(check bool) (label ^ ": rings ≡ FastTrack's") true
            (ft = sp))
        [ 1; 3 ])
    [ "hedc"; "raytracer" ]

(* -- seq/parallel determinism at the default rate ------------------ *)

(* The whole point of the pure (seed, var, ordinal) policy: identical
   warning sets from the sequential run, the parallel run, and the
   static-elimination run.  (Static elimination drops certified
   variables wholesale, so surviving variables keep their ordinals.) *)
let sampling_plans_agree tr =
  List.iter
    (fun d ->
      let cfg = config ~rate:0.1 ~budget:2 ~seed:3 in
      let seq = Driver.run ~config:cfg d tr in
      let par = Driver.run_parallel ~config:cfg ~jobs:3 d tr in
      Alcotest.check warnings_t "warnings under stealing" seq.Driver.warnings
        par.Driver.warnings;
      Alcotest.check witnesses_t "witnesses under stealing"
        seq.Driver.witnesses par.Driver.witnesses)
    [ (module Sampling_ft : Detector.S);
      (module Sampling_period : Detector.S) ];
  true

let qtest_plans =
  Helpers.qtest ~count:40 "sampling: seq ≡ stealing" sampling_plans_agree

let test_static_elim_agrees () =
  let w = Option.get (Workloads.find "raytracer") in
  let summary = Static.analyze (w.Workload.program ~scale:1) in
  let tr = Workload.trace ~seed:11 ~scale:1 w in
  let cfg = config ~rate:0.1 ~budget:2 ~seed:3 in
  let plain = Driver.run ~config:cfg (module Sampling_ft) tr in
  let elim_cfg =
    Config.with_static_elim
      (Static.eliminator ~granularity:Var.Fine summary)
      cfg
  in
  let elim = Driver.run ~config:elim_cfg (module Sampling_ft) tr in
  Alcotest.check warnings_t "warnings with static-elim"
    plain.Driver.warnings elim.Driver.warnings;
  Alcotest.check witnesses_t "witnesses with static-elim"
    plain.Driver.witnesses elim.Driver.witnesses

(* -- soundness: sampling never invents a race ---------------------- *)

let racy_vars warnings =
  warnings
  |> List.map (fun w -> w.Warning.x)
  |> List.sort_uniq Var.compare

let subset a b = List.for_all (fun x -> List.mem x b) a

let sampling_is_sound tr =
  let ft = racy_vars (Driver.run (module Fasttrack) tr).Driver.warnings in
  List.iter
    (fun seed ->
      let cfg = config ~rate:0.1 ~budget:2 ~seed in
      List.iter
        (fun d ->
          let sp = racy_vars (Driver.run ~config:cfg d tr).Driver.warnings in
          if not (subset sp ft) then
            Alcotest.failf
              "sampler (seed %d) warned on a variable FastTrack did not: %s"
              seed (Helpers.vars_to_string sp))
        [ (module Sampling_ft : Detector.S);
          (module Sampling_period : Detector.S) ])
    [ 1; 2; 3 ];
  true

let qtest_sound =
  Helpers.qtest ~count:60 "sampled warnings ⊆ FastTrack's racy variables"
    sampling_is_sound

(* -- repeated-runs recall (the A9 gate's property) ----------------- *)

let recall_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_recall_within_k_runs () =
  List.iter
    (fun (w : Workload.t) ->
      if w.Workload.expected_races > 0 then begin
        let tr = Workload.trace ~seed:11 ~scale:1 w in
        let oracle =
          racy_vars (Driver.run (module Fasttrack) tr).Driver.warnings
        in
        let caught =
          List.concat_map
            (fun seed ->
              let cfg =
                Config.with_sampling
                  { Config.default_sampling with Config.seed }
                  Config.default
              in
              racy_vars
                (Driver.run ~config:cfg (module Sampling_ft) tr)
                  .Driver.warnings)
            recall_seeds
          |> List.sort_uniq Var.compare
        in
        if not (subset oracle caught) then
          Alcotest.failf
            "%s: races missed across %d seeded runs at the default rate \
             (oracle %s, caught %s)"
            w.Workload.name (List.length recall_seeds)
            (Helpers.vars_to_string oracle)
            (Helpers.vars_to_string caught)
      end)
    Workloads.table1

(* -- stats accounting ---------------------------------------------- *)

let test_stats_partition () =
  let tr =
    Trace_gen.generate ~seed:5
      { Trace_gen.default with Trace_gen.length = 400 }
  in
  let reads, writes, _ = Trace.counts tr in
  let run cfg d = (Driver.run ~config:cfg d tr).Driver.stats in
  let s = run (config ~rate:0.1 ~budget:4 ~seed:1) (module Sampling_ft) in
  Alcotest.(check int) "sampled + skipped = accesses" (reads + writes)
    (s.Stats.sampled + s.Stats.skipped);
  let s1 = run full_rate (module Sampling_ft) in
  Alcotest.(check int) "rate 1.0 skips nothing" 0 s1.Stats.skipped;
  Alcotest.(check int) "rate 1.0 samples everything" (reads + writes)
    s1.Stats.sampled;
  let s0 = run (config ~rate:0.0 ~budget:0 ~seed:1) (module Sampling_ft) in
  Alcotest.(check int) "rate 0.0, budget 0 samples nothing" 0
    s0.Stats.sampled;
  let ft = (Driver.run (module Fasttrack) tr).Driver.stats in
  Alcotest.(check int) "FastTrack reports sampled = 0" 0 ft.Stats.sampled;
  Alcotest.(check int) "FastTrack reports skipped = 0" 0 ft.Stats.skipped

let suite =
  ( "sampling",
    [ qtest_full_rate;
      Alcotest.test_case "recorder rings ≡ FastTrack's at rate 0.02"
        `Quick test_recorder_rings_match;
      qtest_plans;
      Alcotest.test_case "static-elim keeps the warning set" `Quick
        test_static_elim_agrees;
      qtest_sound;
      Alcotest.test_case "recall within K seeded runs (A9)" `Quick
        test_recall_within_k_runs;
      Alcotest.test_case "sampled/skipped account for every access"
        `Quick test_stats_partition ] )
