type record = {
  experiment : string;
  workload : string;
  tool : string;
  jobs : int;
  plan : string;
  events : int;
  elapsed : float;
  throughput : float;
  slowdown : float;
  speedup : float;
  warnings : int;
  imbalance : float;
  static_elim : bool;
  dropped_frac : float;
  prefix_wall : float;
  prefix_frac : float;
  amdahl_ceiling : float;
  rate : float;
  recall : float;
}

let throughput ~events ~elapsed =
  if elapsed > 0. then float_of_int events /. elapsed else 0.

let records : record list ref = ref []

(* The correctness half of every row, checked against ground truth as
   it arrives: FastTrack is precise, so a sequential FastTrack row
   warns on exactly the workload's known racy variables. *)
let add r =
  (if r.tool = "FastTrack" && r.plan <> "stealing" then
     match Workloads.find r.workload with
     | Some w when r.warnings <> w.Workload.expected_races ->
       failwith
         (Printf.sprintf
            "%s/%s: FastTrack reported %d warning(s), the workload has \
             %d known race(s) (precision regression)"
            r.experiment r.workload r.warnings w.Workload.expected_races)
     | _ -> ());
  records := r :: !records

let recorded () = List.rev !records
let reset () = records := []

let record_json r =
  let open Obs_json in
  (* The prefix/Amdahl fields only mean something for stealing-plan
     rows, the rate/recall fields only for sampling rows (-1 is the
     "not a sampling row" sentinel; recall alone can be absent on a
     race-free workload): elsewhere they are omitted. *)
  let prefix_fields =
    if r.prefix_wall > 0. || r.prefix_frac > 0. || r.amdahl_ceiling > 0.
    then
      [ ("prefix_wall", float r.prefix_wall);
        ("prefix_frac", float r.prefix_frac);
        ("amdahl_ceiling", float r.amdahl_ceiling) ]
    else []
  in
  let sampling_fields =
    (if r.rate >= 0. then [ ("rate", float r.rate) ] else [])
    @ if r.recall >= 0. then [ ("recall", float r.recall) ] else []
  in
  obj
    ([ ("experiment", str r.experiment);
       ("workload", str r.workload);
       ("tool", str r.tool);
       ("jobs", int r.jobs);
       ("plan", str r.plan);
       ("events", int r.events);
       ("elapsed_s", float r.elapsed);
       ("throughput", float r.throughput);
       ("slowdown", float r.slowdown);
       ("speedup", float r.speedup);
       ("warnings", int r.warnings);
       ("imbalance", float r.imbalance);
       ("static_elim", bool r.static_elim);
       ("dropped_frac", float r.dropped_frac) ]
    @ prefix_fields @ sampling_fields)

(* Honesty marker: set when the harness ran parallel experiments on a
   host below the 4-core floor with --allow-few-cores.  Readers (CI,
   README refresh scripts) must treat such speedup cells as
   unmeasured. *)
let few_cores_override = ref false
let set_few_cores_override v = few_cores_override := v

let write ~scale ~repeat path =
  let open Obs_json in
  let host =
    [ ("cores", int (Obs_cores.recommended ()));
      ("ocaml", str Sys.ocaml_version);
      ("word_size", int Sys.word_size) ]
    @ if !few_cores_override then [ ("few_cores_override", bool true) ]
      else []
  in
  let doc =
    obj
      [ ("host", obj host);
        ("scale", int scale);
        ("repeat", int repeat);
        ("records", arr (List.map record_json (recorded ()))) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      to_channel oc doc;
      output_char oc '\n');
  Printf.printf "wrote %d benchmark record(s) to %s\n"
    (List.length (recorded ()))
    path
