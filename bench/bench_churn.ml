(* Experiment A4 (ours) — thread churn: the accordion-clock extension.

   A server-style program forks and joins one short-lived worker after
   another.  Plain vector clocks are indexed by thread id, so every
   clock grows with the *total* number of threads; accordion clocks
   recycle the slots of collected threads, so every clock stays at the
   size of the live set.  This is the space problem the paper's
   Section 4 points at ("existing techniques to reduce the size of
   vector clocks [10] could also be employed"). *)

let churn_workload ~workers =
  let program ~scale =
    let shared = Var.scalar 0 in
    let workers = workers * scale in
    let worker i =
      { Program.tid = i + 1;
        body =
          Program.reads shared 2
          @ Patterns.work ~reads:3 ~writes:1
              [| Var.scalar (1 + i); Var.scalar (100_000 + i) |] }
    in
    let main =
      { Program.tid = 0;
        body =
          Program.Write shared
          :: List.concat
               (List.init workers (fun i ->
                    [ Program.Fork (i + 1); Program.Join (i + 1) ])) }
    in
    Program.make (main :: List.init workers worker)
  in
  { Workload.name = Printf.sprintf "churn-%d" workers;
    description = "sequential short-lived workers";
    threads = workers + 1;
    compute_bound = true;
    expected_races = 0;
    program }

let run ~scale:_ ~repeat () =
  print_endline "== Thread churn: plain vs accordion clocks ==";
  let t =
    Table.create
      ~columns:
        [ ("Threads", Table.Right); ("Events", Table.Right);
          ("FT ns/ev", Table.Right); ("Accordion ns/ev", Table.Right);
          ("FT clock entries", Table.Right); ("Accordion slots", Table.Right) ]
  in
  List.iter
    (fun workers ->
      let w = churn_workload ~workers in
      let tr = Bench_common.trace_of ~scale:1 w in
      let events = float_of_int (Trace.length tr) in
      let _, ft_time =
        Bench_common.measure ~repeat (module Fasttrack) tr
      in
      let acc_result, acc_time =
        Bench_common.measure ~repeat (module Fasttrack_accordion) tr
      in
      let acc = Fasttrack_accordion.create Config.default in
      Trace.iteri (fun index e -> Fasttrack_accordion.on_event acc ~index e) tr;
      (* ground truth: the workers touch only their own variables and
         read the main thread's write after their fork, and at most the
         main thread and one worker are ever live *)
      if acc_result.Driver.warnings <> [] then
        failwith
          (Printf.sprintf "%s: accordion warns on a race-free program \
                           (precision regression)" w.Workload.name);
      if Fasttrack_accordion.slot_count acc <> 2 then
        failwith
          (Printf.sprintf "%s: accordion used %d slots, expected 2 \
                           (slot recycling regression)"
             w.Workload.name (Fasttrack_accordion.slot_count acc));
      Table.add_row t
        [ Table.fmt_int (w.Workload.threads);
          Table.fmt_int (Trace.length tr);
          Printf.sprintf "%.0f" (1e9 *. ft_time /. events);
          Printf.sprintf "%.0f" (1e9 *. acc_time /. events);
          (* a plain clock that has seen every thread holds one entry
             per thread id *)
          Table.fmt_int w.Workload.threads;
          Table.fmt_int (Fasttrack_accordion.slot_count acc) ])
    [ 100; 400; 1600; 6400 ];
  Table.print t;
  print_endline
    "(the accordion keeps every clock at live-set size: a handful of \
     slots regardless of how many threads the program churns through)"
