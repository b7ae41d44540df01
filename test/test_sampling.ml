(* The sampling tier (lib/sampling): tree-clock timestamping versus
   the vector-clock oracle, FastTrack equivalence at rate 1.0,
   seq/parallel determinism of the seeded sampling policy, soundness
   (sampled warnings only ever name truly racy variables), and the
   repeated-runs recall guarantee the A9 CI gate enforces. *)

module VC = Vector_clock
module TC = Tree_clock

let warning : Warning.t Alcotest.testable =
  Alcotest.testable Warning.pp (fun (a : Warning.t) b -> a = b)

let warnings_t = Alcotest.list warning

let witness : Witness.t Alcotest.testable =
  Alcotest.testable Witness.pp (fun (a : Witness.t) b -> a = b)

let witnesses_t = Alcotest.list witness

let config ~rate ~budget ~seed =
  Config.with_sampling { Config.rate; budget; seed } Config.default

(* -- Tree_clock ≡ Vector_clock over Trace_gen seeds ---------------- *)

(* Replay every sync event through Vc_state and Tc_state side by side;
   after each event the clocks, epochs and leq relations must agree
   component for component, and every tree must pass the structural
   audit.  Trace_gen emits volatiles and barriers in every profile, so
   the flat/inexact and rebase paths are exercised, not just the
   tree-join path. *)
let tc_state_matches_vc_state tr =
  let vstats = Stats.create () and tstats = Stats.create () in
  let vs = Vc_state.create vstats in
  let ts = Tc_state.create tstats in
  Trace.iteri
    (fun _index e ->
      let hv = Vc_state.handle_sync vs e in
      let ht = Tc_state.handle_sync ts e in
      if hv <> ht then
        Alcotest.failf "handle_sync disagrees on %s" (Event.to_string e);
      if hv && Event.is_sync e then begin
        let n = Vc_state.thread_count vs in
        for t = 0 to n - 1 do
          let vc = Vc_state.clock vs t and tc = Tc_state.clock ts t in
          TC.check tc;
          if VC.to_list vc <> TC.to_list tc then
            Alcotest.failf
              "C_%d diverges after %s: VC %s, TC %s" t
              (Event.to_string e)
              (Format.asprintf "%a" VC.pp vc)
              (Format.asprintf "%a" TC.pp tc);
          if not (Epoch.equal (Vc_state.epoch vs t) (Tc_state.epoch ts t))
          then Alcotest.failf "E(%d) diverges after %s" t (Event.to_string e)
        done;
        (* cross-thread orderings through the interop comparisons *)
        for t = 0 to n - 1 do
          for u = 0 to n - 1 do
            let vc_leq =
              VC.leq (Vc_state.clock vs t) (Vc_state.clock vs u)
            in
            let tc_leq =
              TC.leq (Tc_state.clock ts t) (Tc_state.clock ts u)
            in
            if vc_leq <> tc_leq then
              Alcotest.failf "leq(C_%d, C_%d) diverges after %s" t u
                (Event.to_string e)
          done
        done
      end)
    tr;
  true

let qtest_oracle =
  Helpers.qtest ~count:120 "Tc_state ≡ Vc_state over generated traces"
    tc_state_matches_vc_state

(* -- Tree_clock unit behaviour ------------------------------------- *)

let test_tree_clock_basics () =
  let a = TC.create () in
  Alcotest.(check int) "bottom get" 0 (TC.get a 3);
  Alcotest.(check (list int)) "bottom to_list" [] (TC.to_list a);
  TC.inc a 2;
  TC.inc a 2;
  Alcotest.(check int) "inc roots and counts" 2 (TC.get a 2);
  Alcotest.(check int) "root" 2 (TC.root a);
  TC.check a;
  let b = TC.create () in
  TC.inc b 0;
  TC.join_into ~dst:b a;
  TC.check b;
  Alcotest.(check (list int)) "join carries entries" [ 1; 0; 2 ]
    (TC.to_list b);
  (* joining twice is idempotent (second join early-exits) *)
  TC.join_into ~dst:b a;
  TC.check b;
  Alcotest.(check (list int)) "idempotent" [ 1; 0; 2 ] (TC.to_list b);
  Alcotest.(check bool) "a ⊑ b" true (TC.leq a b);
  Alcotest.(check bool) "b ⋢ a" false (TC.leq b a);
  Alcotest.(check bool) "epoch_leq" true
    (TC.epoch_leq (TC.epoch_of a 2) b);
  let rvc = VC.of_list [ 1; 0; 2 ] in
  Alcotest.(check bool) "vc_leq" true (TC.vc_leq rvc b);
  VC.set rvc 1 5;
  (match TC.find_gt_vc rvc b with
  | Some (1, 5) -> ()
  | _ -> Alcotest.fail "find_gt_vc misses the failing component");
  let c = TC.copy b in
  TC.check c;
  Alcotest.(check bool) "copy equal" true (TC.equal b c)

let test_tree_clock_inc_nonroot () =
  let a = TC.create () in
  TC.inc a 1;
  Alcotest.check_raises "inc off the root"
    (Invalid_argument "Tree_clock.inc: only the root component advances")
    (fun () -> TC.inc a 0)

(* -- rate 1.0 ≡ FastTrack ------------------------------------------ *)

let full_rate = config ~rate:1.0 ~budget:0 ~seed:7

let sampling_full_rate_is_fasttrack tr =
  let ft = Driver.run (module Fasttrack) tr in
  List.iter
    (fun d ->
      let sp = Driver.run ~config:full_rate d tr in
      Alcotest.check warnings_t "warnings ≡ FastTrack at rate 1.0"
        ft.Driver.warnings sp.Driver.warnings;
      Alcotest.check witnesses_t "witnesses ≡ FastTrack at rate 1.0"
        ft.Driver.witnesses sp.Driver.witnesses)
    [ (module Sampling_ft : Detector.S);
      (module Sampling_period : Detector.S) ];
  true

let qtest_full_rate =
  Helpers.qtest ~count:80 "sampling at rate 1.0 ≡ FastTrack"
    sampling_full_rate_is_fasttrack

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
    [ qtest_oracle;
      Alcotest.test_case "tree-clock basics" `Quick test_tree_clock_basics;
      Alcotest.test_case "tree-clock inc off the root" `Quick
        test_tree_clock_inc_nonroot;
      qtest_full_rate;
      qtest_plans;
      Alcotest.test_case "static-elim keeps the warning set" `Quick
        test_static_elim_agrees;
      qtest_sound;
      Alcotest.test_case "recall within K seeded runs (A9)" `Quick
        test_recall_within_k_runs;
      Alcotest.test_case "sampled/skipped account for every access"
        `Quick test_stats_partition ] )
