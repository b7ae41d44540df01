(* pb — the OCaml half of the file-to-verdict benchmark.

     pb setup  --workload W --seed N --dir D --reps K [--spans F]
     pb traced --workload W --dir D --seconds S --spans F

   [setup] generates, encodes and writes the workload's trace files K
   times (the median wall time of a repetition is the benchmark's
   setup_s), then computes the reference verdicts outside the timed
   region and writes [D/manifest.tsv] for run.py.

   [traced] repeats each `ftrace analyze` request in-process, through
   the public calls the CLI makes, with a span around each call into a
   library layer; it then times the layers the request does not use on
   the same trace ("probes").  Spans and counts go to F when the run
   ends. *)

type request = Plain | Triage
type source = Model of string * int  (** workload model, scale *) | Random

type workload = {
  name : string;
  request : request;
  files : (string * source) list;  (** file stem, how to make it *)
}

(* The same shape `ftrace generate --random --threads 128 --vars 2000
   --locks 64` produces. *)
let random_params =
  { Trace_gen.default with threads = 128; vars = 2000; locks = 64;
    length = 100_000 }

let workloads =
  [ { name = "grande";
      request = Plain;
      files =
        List.map
          (fun w -> (w, Model (w, 20)))
          [ "moldyn"; "sor"; "raytracer"; "montecarlo"; "lufact"; "sparse" ] };
    { name = "eclipse-triage";
      request = Triage;
      files =
        List.map
          (fun (w, scale) -> (w, Model (w, scale)))
          [ ("eclipse-startup", 16); ("eclipse-import", 20);
            ("eclipse-clean-small", 23); ("eclipse-clean-large", 10);
            ("eclipse-debug", 100) ] };
    { name = "threads128";
      request = Plain;
      files = [ ("random", Random) ] } ]

(* The parallel probes use no more domains than the machine has. *)
let jobs () = min 2 (Domain.recommended_domain_count ())

let find_model name =
  match Workloads.find name with
  | Some w -> w
  | None -> failwith ("unknown workload model " ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let trace_path dir stem = Filename.concat dir (stem ^ ".trace")

(* A span when tracing, a plain call otherwise. *)
let timed tracer ~req name f =
  match tracer with
  | None -> f ()
  | Some t -> Spans.with_span t ~req ~name f

let make_trace tracer ~req ~seed = function
  | Model (name, scale) ->
    timed tracer ~req "runtime.schedule" (fun () ->
        Workload.trace ~seed ~scale (find_model name))
  | Random ->
    timed tracer ~req "trace.gen" (fun () -> Trace_gen.generate ~seed random_params)

(* ------------------------------------------------------------------ *)
(* setup                                                              *)

let cli_args w dir stem =
  match w.request with
  | Plain -> []
  | Triage ->
    let out ext = Filename.concat dir (stem ^ ext) in
    [ "--report"; out ".report.json"; "--metrics"; out ".metrics.json" ]

let setup w ~seed ~dir ~reps ~spans_out =
  let tracer = Option.map (fun _ -> Spans.create ()) spans_out in
  let events = Hashtbl.create 8 in
  let one_rep () =
    let t0 = Spans.now_ns () in
    List.iteri
      (fun req (stem, src) ->
        let tr = make_trace tracer ~req ~seed src in
        Hashtbl.replace events stem (Trace.length tr);
        let text = timed tracer ~req "trace.encode" (fun () -> Trace.to_string tr) in
        write_file (trace_path dir stem) text)
      w.files;
    float_of_int (Spans.now_ns () - t0) /. 1e9
  in
  let setup_s = List.init reps (fun _ -> one_rep ()) in
  (* Every traced run reports every layer: the trace maker this
     workload does not use is timed on a small fixed companion input. *)
  Option.iter
    (fun t ->
      List.iteri
        (fun i (stem, _) ->
          Spans.request t ~req:i ~file:stem;
          Spans.count t ~req:i "events"
            (float_of_int (Hashtbl.find events stem)))
        w.files;
      let req = List.length w.files in
      let random = function _, Random -> true | _, Model _ -> false in
      let tr =
        if List.exists random w.files then
          make_trace tracer ~req ~seed (Model ("moldyn", 1))
        else
          Spans.with_span t ~req ~name:"trace.gen" (fun () ->
              Trace_gen.generate ~seed { random_params with length = 5_000 })
      in
      Spans.request t ~req ~file:"companion";
      Spans.count t ~req "events" (float_of_int (Trace.length tr)))
    tracer;
  (* Reference verdicts, outside the timed repetitions.  They never
     come from FastTrack: the models publish their race count, and
     random traces are checked against the happens-before oracle. *)
  let oc = open_out (Filename.concat dir "manifest.tsv") in
  List.iter (Printf.fprintf oc "setup_s\t%.9f\n") setup_s;
  List.iter
    (fun (stem, src) ->
      let path = trace_path dir stem in
      let count, vars =
        match src with
        | Model (name, _) -> ((find_model name).Workload.expected_races, "-")
        | Random -> (
          match Trace.of_string (read_file path) with
          | Error msg -> failwith (path ^ ": " ^ msg)
          | Ok tr ->
            let vars = List.map Var.to_string (Happens_before.racy_vars tr) in
            (List.length vars, if vars = [] then "-" else String.concat "," vars))
      in
      Printf.fprintf oc "file\t%s\t%s\t%d\t%d\t%s\t%s\n" stem path
        (Hashtbl.find events stem) count vars
        (String.concat " " ("analyze" :: path :: cli_args w dir stem)))
    w.files;
  close_out oc;
  Option.iter (fun t -> Spans.write t (Option.get spans_out)) tracer

(* ------------------------------------------------------------------ *)
(* traced                                                             *)

type expect = { stem : string; path : string; count : int; vars : string list }

let read_manifest dir =
  let ic = open_in (Filename.concat dir "manifest.tsv") in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
      match String.split_on_char '\t' line with
      | [ "file"; stem; path; _events; count; vars; _args ] ->
        let vars = if vars = "-" then [] else String.split_on_char ',' vars in
        loop ({ stem; path; count = int_of_string count; vars } :: acc)
      | _ -> loop acc)
  in
  let files = loop [] in
  close_in ic;
  files

let fasttrack = (module Fasttrack : Detector.S)

(* `ftrace analyze --report R --metrics M`: the run with the handles those
   flags create, then both documents. *)
let triage t ~req e tr =
  let span name f = Spans.with_span t ~req ~name f in
  let obs = Obs.create ~gc_every:8192 () in
  let config =
    Config.with_recorder (Obs_recorder.create ()) (Config.with_obs obs Config.default)
  in
  let r = span "core.detect_obs" (fun () -> Driver.run ~config fasttrack tr) in
  let report =
    span "report.build" (fun () ->
        Report.to_string (Report.build ~config ~source:e.path ~trace:tr r))
  in
  let metrics = span "obs.export" (fun () -> Driver.export_metrics ~source:e.path ~obs r) in
  (r, report, metrics)

(* The CLI's verdict lines, rendered where the CLI prints them. *)
let render (r : Driver.result) tr =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s: %d events, %d warning(s)\n" r.Driver.tool
    (Trace.length tr) (List.length r.Driver.warnings);
  List.iter
    (fun w -> Printf.bprintf b "  %s\n" (Warning.to_string w))
    r.Driver.warnings;
  Buffer.contents b

let verdict_ok e (r : Driver.result) =
  let warned = List.map (fun w -> Var.to_string w.Warning.x) r.Driver.warnings in
  List.length warned = e.count
  && (e.vars = [] || List.sort compare warned = List.sort compare e.vars)

let count_stats t ~req (r : Driver.result) =
  let s = r.Driver.stats in
  let c name v = Spans.count t ~req name (float_of_int v) in
  c "accesses" (s.Stats.reads + s.Stats.writes);
  c "same_epoch"
    (Stats.rule_hits s "READ SAME EPOCH" + Stats.rule_hits s "WRITE SAME EPOCH");
  c "vc_ops" s.Stats.vc_ops;
  c "peak_words" s.Stats.peak_words

let traced_file t w ~req e =
  let span name f = Spans.with_span t ~req ~name f in
  let jobs = jobs () in
  Spans.request t ~req ~file:e.stem;
  Gc.full_major ();
  (* The request, as the CLI runs it.  File reading and printing are
     not library layers: they are left to the residual. *)
  let tr, result =
    span "request" (fun () ->
        let text = read_file e.path in
        let minor0, promoted0, major0 = Gc.counters () in
        let tr =
          match span "trace.decode" (fun () -> Trace.of_string text) with
          | Ok tr -> tr
          | Error msg -> failwith (e.path ^ ": " ^ msg)
        in
        let minor1, promoted1, major1 = Gc.counters () in
        Spans.count t ~req "decode_alloc_words"
          (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0));
        let r =
          match w.request with
          | Plain -> span "core.detect" (fun () -> Driver.run fasttrack tr)
          | Triage ->
            let r, report, metrics = triage t ~req e tr in
            let out ext = Filename.concat (Filename.dirname e.path) (e.stem ^ ext) in
            write_file (out ".traced-report.json") report;
            write_file (out ".traced-metrics.json") metrics;
            r
        in
        ignore (Sys.opaque_identity (render r tr));
        (tr, r))
  in
  Spans.count t ~req "events" (float_of_int (Trace.length tr));
  Spans.count t ~req "failed" (if verdict_ok e result then 0. else 1.);
  (* Probes: the layers this request did not run, on the same trace. *)
  ignore (span "detector.replay" (fun () -> Driver.replay tr));
  ignore (span "trace.validity" (fun () -> Validity.check tr));
  count_stats t ~req
    (if w.request = Plain then result
     else span "core.detect" (fun () -> Driver.run fasttrack tr));
  if w.request <> Triage then ignore (triage t ~req e tr);
  let prefix = span "parallel.prefix" (fun () -> Prefix.build ~jobs tr) in
  let ts = Sync_timeline.stats prefix.Prefix.timeline in
  Spans.count t ~req "timeline_words" (float_of_int ts.Sync_timeline.words);
  Spans.count t ~req "snapshot_hits" (float_of_int ts.Sync_timeline.snapshot_hits);
  Spans.count t ~req "checkpoints" (float_of_int ts.Sync_timeline.checkpoints);
  let par = span "parallel.run" (fun () -> Driver.run_parallel ~jobs fasttrack tr) in
  Spans.count t ~req "prefix_frac" (Driver.prefix_frac par);
  Spans.count t ~req "imbalance" par.Driver.imbalance

let traced w ~dir ~seconds ~spans_out =
  let files = read_manifest dir in
  let t = Spans.create () in
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let rec pass p =
    List.iteri (fun i e -> traced_file t w ~req:((p * 100) + i) e) files;
    if Spans.now_ns () < deadline then pass (p + 1)
  in
  pass 0;
  Spans.write t spans_out

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let opt key =
    let rec go = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let req key =
    match opt key with
    | Some v -> v
    | None ->
      prerr_endline ("pb: missing " ^ key);
      exit 2
  in
  let workload () =
    let name = req "--workload" in
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("pb: unknown workload " ^ name);
      exit 2
  in
  match args with
  | _ :: "setup" :: _ ->
    setup (workload ()) ~seed:(int_of_string (req "--seed")) ~dir:(req "--dir")
      ~reps:(int_of_string (req "--reps")) ~spans_out:(opt "--spans")
  | _ :: "traced" :: _ ->
    traced (workload ()) ~dir:(req "--dir")
      ~seconds:(float_of_string (req "--seconds")) ~spans_out:(req "--spans")
  | _ ->
    prerr_endline "usage: pb (setup|traced) --workload W ...";
    exit 2
