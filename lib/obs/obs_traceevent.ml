let schema_version = "ftrace.trace/1"

let usec s = s *. 1e6

(* Virtual-thread placement: work-item spans get their own rows so the
   timeline shows per-item lifetimes side by side. *)
let tid_of_span (s : Obs_span.span) =
  let name = s.Obs_span.name in
  match
    if String.length name > 5 && String.sub name 0 5 = "item-" then
      int_of_string_opt (String.sub name 5 (String.length name - 5))
    else None
  with
  | Some n when n >= 0 -> n + 1
  | _ -> 0

let attr_json = function
  | Obs_span.Int n -> Obs_json.int n
  | Obs_span.Float f -> Obs_json.float f
  | Obs_span.Str s -> Obs_json.str s

let args_json attrs =
  Obs_json.obj (List.map (fun (k, v) -> (k, attr_json v)) attrs)

let is_race_instant (s : Obs_span.span) =
  s.Obs_span.name = "race" && s.Obs_span.duration = 0.

let complete_event (s : Obs_span.span) =
  Obs_json.obj
    [ ("name", Obs_json.str s.Obs_span.name);
      ("ph", Obs_json.str "X");
      ("pid", Obs_json.int 1);
      ("tid", Obs_json.int (tid_of_span s));
      ("ts", Obs_json.float (usec s.Obs_span.start));
      ("dur", Obs_json.float (usec s.Obs_span.duration));
      ("args", args_json s.Obs_span.attrs) ]

let instant_event (s : Obs_span.span) =
  Obs_json.obj
    [ ("name", Obs_json.str "race");
      ("ph", Obs_json.str "i");
      ("s", Obs_json.str "g");  (* global scope: full-height marker *)
      ("pid", Obs_json.int 1);
      ("tid", Obs_json.int (tid_of_span s));
      ("ts", Obs_json.float (usec s.Obs_span.start));
      ("args", args_json s.Obs_span.attrs) ]

let metadata ~tid ~name =
  Obs_json.obj
    [ ("name", Obs_json.str "thread_name");
      ("ph", Obs_json.str "M");
      ("pid", Obs_json.int 1);
      ("tid", Obs_json.int tid);
      ("args", Obs_json.obj [ ("name", Obs_json.str name) ]) ]

(* Perfetto counter tracks from the profiler's sampled series: one
   ph:"C" event per point per track, cumulative ops, so the track's
   slope is the instantaneous fast-path vs VC-walk rate.  Timestamps
   share the monotonic clock with the span sink (both epochs are taken
   at CLI setup, microseconds apart). *)
let counter_event ~name ~at ~value =
  Obs_json.obj
    [ ("name", Obs_json.str name);
      ("ph", Obs_json.str "C");
      ("pid", Obs_json.int 1);
      ("tid", Obs_json.int 0);
      ("ts", Obs_json.float (usec at));
      ("args", Obs_json.obj [ ("ops", Obs_json.int value) ]) ]

let counter_events prof =
  List.concat_map
    (fun (at, o1, vc) ->
      [ counter_event ~name:"prof.o1_ops" ~at ~value:o1;
        counter_event ~name:"prof.vc_ops" ~at ~value:vc ])
    (Obs_prof.series prof)

let process_metadata =
  Obs_json.obj
    [ ("name", Obs_json.str "process_name");
      ("ph", Obs_json.str "M");
      ("pid", Obs_json.int 1);
      ("args", Obs_json.obj [ ("name", Obs_json.str "ftrace analysis") ]) ]

let document ?(prof = Obs_prof.disabled) t =
  let spans = match Obs.spans t with Some s -> Obs_span.spans s | None -> [] in
  let tids =
    List.sort_uniq Int.compare (0 :: List.map tid_of_span spans)
  in
  let names =
    process_metadata
    :: List.map
         (fun tid ->
           metadata ~tid
             ~name:
               (if tid = 0 then "driver"
                else Printf.sprintf "item %d" (tid - 1)))
         tids
  in
  let events =
    List.map
      (fun s -> if is_race_instant s then instant_event s else complete_event s)
      spans
  in
  let counters = counter_events prof in
  Obs_json.obj
    [ ("displayTimeUnit", Obs_json.str "ms");
      ("otherData",
       Obs_json.obj
         [ ("schema", Obs_json.str schema_version);
           ("ocaml", Obs_json.str Sys.ocaml_version);
           ("cores", Obs_json.int (Obs_cores.recommended ())) ]);
      ("traceEvents", Obs_json.arr (names @ events @ counters)) ]

let to_string ?prof t = Obs_json.to_string (document ?prof t)

let write_file ~path ?prof t =
  if path = "-" then begin
    Obs_json.to_channel stdout (document ?prof t);
    print_newline ()
  end
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Obs_json.to_channel oc (document ?prof t);
        output_char oc '\n')
  end
