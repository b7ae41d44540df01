(* Bechamel micro-benchmarks: one Test.make per table/figure, timing
   the core measurement loop of the corresponding experiment on a
   representative workload, all grouped into one run. *)

open Bechamel
open Toolkit

let detector_test name tool workload scale =
  let tr = Bench_common.trace_of ~scale workload in
  Test.make ~name
    (Staged.stage (fun () ->
         let d = Detector.instantiate (Bench_common.detector tool)
             Config.default
         in
         Trace.iteri (fun index e -> Detector.packed_on_event d ~index e) tr))

let coarse_test name workload scale =
  let tr = Bench_common.trace_of ~scale workload in
  Test.make ~name
    (Staged.stage (fun () ->
         let d =
           Detector.instantiate (module Fasttrack) Config.coarse
         in
         Trace.iteri (fun index e -> Detector.packed_on_event d ~index e) tr))

let compose_test name kind workload scale =
  let tr = Bench_common.trace_of ~scale workload in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Filter.run kind (module Velodrome) tr)))

(* -- A9 satellite: vector-clock join cost ---------------------------- *)

module VC = Vector_clock

(* A thread clock rooted at [root] that has learned one entry from
   every other of the [n] threads. *)
let vc_full n ~root =
  let c = VC.create () in
  for t = 0 to n - 1 do
    VC.set c t 1
  done;
  VC.inc c root;
  c

(* Ping-pong pair: both clocks know all [n] threads, but each round
   trip carries exactly ONE updated entry (the peer's root).  A
   vector clock still scans all [n] entries per join — the O(n) sync
   cost the sampling tier pays at every thread count (EXPERIMENTS.md
   A9 records why that stays a vector clock). *)
let pingpong_test n =
  let a = vc_full n ~root:0 and b = vc_full n ~root:(n - 1) in
  Test.make ~name:(Printf.sprintf "vclock/pingpong-vc/%d" n)
    (Staged.stage (fun () ->
         VC.inc a 0;
         VC.join_into ~dst:b a;
         VC.inc b (n - 1);
         VC.join_into ~dst:a b))

(* Fan-in at a fixed n = 512 threads: [u] spokes advance and publish
   into a hub, then one stale observer joins the hub: (u + 1) x O(n)
   per round. *)
let fanin_test n u =
  let hub_root = n - 1 and obs_root = n - 2 in
  let hub = vc_full n ~root:hub_root in
  let obs = vc_full n ~root:obs_root in
  let spokes = Array.init u (fun i ->
      let s = VC.create () in
      VC.inc s i;
      s)
  in
  Test.make ~name:(Printf.sprintf "vclock/fanin-vc/%d-u%d" n u)
    (Staged.stage (fun () ->
         Array.iteri
           (fun i s ->
             VC.inc s i;
             VC.join_into ~dst:hub s)
           spokes;
         VC.join_into ~dst:obs hub;
         VC.inc hub hub_root))

let vclock_tests () =
  List.map pingpong_test [ 2; 8; 64; 512 ]
  @ List.map (fanin_test 512) [ 8; 64 ]

let tests () =
  let mtrt = Option.get (Workloads.find "mtrt") in
  let raytracer = Option.get (Workloads.find "raytracer") in
  let eclipse = List.hd Workloads.eclipse in
  [ (* Table 1: FastTrack vs DJIT+ vs BasicVC on one kernel *)
      detector_test "table1/fasttrack" "FastTrack" raytracer 1;
      detector_test "table1/djit+" "DJIT+" raytracer 1;
      detector_test "table1/basicvc" "BasicVC" raytracer 1;
      detector_test "table1/eraser" "Eraser" raytracer 1;
      (* Table 2 is counter-based; its timing aspect is the same loop *)
      detector_test "table2/fasttrack-counters" "FastTrack" mtrt 1;
      (* Table 3: coarse granularity *)
      coarse_test "table3/fasttrack-coarse" raytracer 1;
      (* Figure 2's fast-path rates dominate this run *)
      detector_test "figure2/fasttrack-rules" "FastTrack" mtrt 1;
      (* Section 5.2 composition *)
      compose_test "compose/velodrome-none" Filter.None_ mtrt 1;
      compose_test "compose/velodrome-fasttrack" Filter.Fasttrack_pre mtrt 1;
      (* Section 5.3 Eclipse *)
      detector_test "eclipse/fasttrack" "FastTrack" eclipse 1 ]
    @ vclock_tests ()
    |> Test.make_grouped ~name:"fasttrack"

let run () =
  print_endline "== Bechamel micro-benchmarks (ns per whole-trace run) ==";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Printf.printf "-- %s --\n" measure;
      tbl |> Hashtbl.to_seq |> List.of_seq
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols_result) ->
             let estimate =
               match Analyze.OLS.estimates ols_result with
               | Some (e :: _) -> Printf.sprintf "%.0f ns/run" e
               | Some [] | None -> "n/a"
             in
             Printf.printf "  %-32s %s\n" name estimate))
    merged
