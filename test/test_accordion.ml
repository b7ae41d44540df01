(* Tests for the accordion-clock extension: precision is unchanged,
   and slots are actually recycled under thread churn. *)

let x = Var.scalar 0
let rd t x = Event.Read { t; x }
let wr t x = Event.Write { t; x }
let fork t u = Event.Fork { t; u }
let join t u = Event.Join { t; u }

let warning_lines ?(config = Config.default) d tr =
  List.map Warning.to_string (Driver.run ~config d tr).Driver.warnings

(* A server-style program: [n] short-lived workers forked and joined
   in sequence, each touching shared read-only data and its own
   output. *)
let churn_program ~workers ~work =
  let shared = Patterns.alloc () |> fun a ->
    ignore a;
    Var.scalar 999
  in
  let worker i =
    { Program.tid = i + 1;
      body =
        Program.reads shared 2
        @ Patterns.work ~reads:2 ~writes:1 [| Var.scalar (1000 + i) |]
        @ Program.repeat work (Program.reads shared 1) }
  in
  let main =
    { Program.tid = 0;
      body =
        (Program.Write shared :: List.concat
           (List.init workers (fun i ->
                [ Program.Fork (i + 1); Program.Join (i + 1) ]))) }
  in
  Program.make (main :: List.init workers worker)

let churn_trace ~workers =
  Scheduler.run
    ~options:{ Scheduler.default_options with seed = 5 }
    (churn_program ~workers ~work:3)

let test_slots_recycled () =
  let tr = churn_trace ~workers:200 in
  let d = Fasttrack_accordion.create Config.default in
  Trace.iteri (fun index e -> Fasttrack_accordion.on_event d ~index e) tr;
  Alcotest.(check (list string)) "no false races" []
    (List.map Warning.to_string (Fasttrack_accordion.warnings d));
  let slots = Fasttrack_accordion.slot_count d in
  if slots > 8 then
    Alcotest.failf "expected a handful of slots for 201 threads, got %d"
      slots;
  Alcotest.(check bool) "few threads still live" true
    (Fasttrack_accordion.live_threads d <= 2)

let test_race_after_collections () =
  (* churn, then a genuine race between two live threads: recycling
     past threads must not mask it *)
  let workers = 20 in
  let racer_a = workers + 1 and racer_b = workers + 2 in
  let main =
    { Program.tid = 0;
      body =
        List.concat
          (List.init workers (fun i ->
               [ Program.Fork (i + 1); Program.Join (i + 1);
                 Program.Read (Var.scalar (2000 + i)) ]))
        @ [ Program.Fork racer_a; Program.Fork racer_b;
            Program.Join racer_a; Program.Join racer_b ] }
  in
  let worker i =
    { Program.tid = i + 1;
      body = Program.writes (Var.scalar (2000 + i)) 1 }
  in
  let racer tid = { Program.tid; body = [ Program.Write x ] } in
  let p =
    Program.make
      ((main :: List.init workers worker) @ [ racer racer_a; racer racer_b ])
  in
  let tr =
    Scheduler.run ~options:{ Scheduler.default_options with seed = 3 } p
  in
  let run d =
    let r = Driver.run d tr in
    List.map (fun w -> w.Warning.x) r.warnings
  in
  Alcotest.(check bool) "accordion sees the race" true
    (run (module Fasttrack_accordion) = [ x ]);
  Alcotest.(check bool) "plain fasttrack agrees" true
    (run (module Fasttrack) = [ x ]);
  Alcotest.(check (list string)) "same warning as fasttrack"
    (warning_lines (module Fasttrack) tr)
    (warning_lines (module Fasttrack_accordion) tr)

(* Oh yes: the headline — precision identical to the oracle on random
   feasible traces (which satisfy the fork-creation assumption). *)
let prop_accordion_precise =
  Helpers.qtest ~count:250 "accordion fasttrack = oracle" (fun tr ->
      let oracle = Happens_before.racy_vars tr |> List.sort Var.compare in
      let ours = Helpers.racy_vars (module Fasttrack_accordion) tr in
      if oracle = ours then true
      else
        QCheck2.Test.fail_reportf "oracle {%s} vs accordion {%s}"
          (Helpers.vars_to_string oracle)
          (Helpers.vars_to_string ours))

(* A race is the same race under the renaming: thread, variable,
   position and kind.  The prior is not compared: for a READ SHARED
   write, the lowest slot above [C_t] can name a different racing
   reader than the lowest tid. *)
let race_keys d tr =
  List.map
    (fun w -> (w.Warning.x, w.index, w.kind, w.tid))
    (Driver.run d tr).Driver.warnings

let prop_accordion_races =
  Helpers.qtest ~count:250 "accordion races = fasttrack" (fun tr ->
      race_keys (module Fasttrack_accordion) tr
      = race_keys (module Fasttrack) tr)

let test_workloads_equal_fasttrack () =
  List.iter
    (fun (w : Workload.t) ->
      let tr = Workload.trace ~scale:1 w in
      List.iter
        (fun (gname, config) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s" w.name gname)
            (warning_lines ~config (module Fasttrack) tr)
            (warning_lines ~config (module Fasttrack_accordion) tr))
        [ ("fine", Config.default); ("coarse", Config.coarse);
          ("adaptive", Config.adaptive) ])
    Workloads.all

(* 5 000 threads live at once: more than a packed slot field could
   name, and every clock is 5 000 entries long. *)
let test_many_live_threads () =
  let n = 5_000 in
  let tr =
    Trace.of_list
      (List.init n (fun i -> fork 0 (i + 1))
      @ List.init n (fun i -> wr (i + 1) (Var.scalar (i + 1)))
      @ List.init n (fun i -> join 0 (i + 1)))
  in
  let d = Fasttrack_accordion.create Config.default in
  Trace.iteri (fun index e -> Fasttrack_accordion.on_event d ~index e) tr;
  Alcotest.(check (list string)) "warnings = fasttrack"
    (warning_lines (module Fasttrack) tr)
    (List.map Warning.to_string (Fasttrack_accordion.warnings d));
  Alcotest.(check int) "one slot per thread" (n + 1)
    (Fasttrack_accordion.slot_count d)

let suite =
  ( "accordion clocks",
    [ Alcotest.test_case "slots recycled under churn" `Quick
        test_slots_recycled;
      Alcotest.test_case "race after collections" `Quick
        test_race_after_collections;
      Alcotest.test_case "more than 4096 live threads" `Quick
        test_many_live_threads;
      Alcotest.test_case "warnings = fasttrack on every workload" `Quick
        test_workloads_equal_fasttrack;
      prop_accordion_precise;
      prop_accordion_races ] )
