(* Tests for events, traces, the builder and the textual format. *)

let e_rd t x = Event.Read { t; x = Var.scalar x }
let e_wr t x = Event.Write { t; x = Var.scalar x }

let test_event_classify () =
  Alcotest.(check bool) "read is access" true (Event.is_access (e_rd 0 0));
  Alcotest.(check bool) "acquire is sync" true
    (Event.is_sync (Event.Acquire { t = 0; m = 1 }));
  Alcotest.(check bool) "txn is neither" false
    (Event.is_access (Event.Txn_begin { t = 0 })
    || Event.is_sync (Event.Txn_begin { t = 0 }));
  Alcotest.(check (option int)) "tid of read" (Some 3)
    (Event.tid (e_rd 3 0));
  Alcotest.(check (option int)) "tid of barrier" None
    (Event.tid (Event.Barrier_release { threads = [ 1; 2 ] }))

let test_event_parse_roundtrip () =
  let cases =
    [ "rd(1,x3)"; "wr(0,x2.5)"; "acq(2,m1)"; "rel(2,m1)"; "fork(0,1)";
      "join(0,1)"; "vrd(1,v0)"; "vwr(1,v0)"; "barrier(1,2,3)"; "begin(4)";
      "end(4)"; "wr(65535,x1.65535)" ]
  in
  List.iter
    (fun s ->
      match Event.of_string s with
      | Ok e -> Alcotest.(check string) s s (Event.to_string e)
      | Error msg -> Alcotest.failf "%s: %s" s msg)
    cases

let test_event_parse_errors () =
  List.iter
    (fun s ->
      match Event.of_string s with
      | Error _ -> ()
      | Ok e -> Alcotest.failf "%s should not parse (got %s)" s
                  (Event.to_string e))
    [ ""; "rd"; "rd(1)"; "rd(x,1)"; "frobnicate(1,2)"; "rd(1,m3)";
      "acq(1,x3)"; "barrier()"; "rd(1,x3";
      (* ids out of range: an error, never an exception *)
      "wr(-1,x1)"; "wr(0,x-1)"; "rd(0,x1.-2)"; "rd(0,x1.65536)";
      "acq(0,m-1)"; "rel(-3,m0)"; "vrd(0,v-1)"; "vwr(0,v-9)";
      "fork(0,-2)"; "join(-1,0)"; "barrier(0,-1)"; "begin(-1)"; "end(-1)";
      "wr(65536,x1)"; "fork(0,65536)"; "barrier(0,65536)" ]

let test_trace_error_lines () =
  match Trace.of_string "rd(0,x1)\n# note\n\nwr(-1,x1)\n" with
  | Ok _ -> Alcotest.fail "negative tid parsed"
  | Error msg ->
    if not (String.starts_with ~prefix:"line 4: " msg) then
      Alcotest.failf "error %S does not name line 4" msg

let prop_event_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"event to_string/of_string"
       Helpers.gen_event (fun e ->
         match Event.of_string (Event.to_string e) with
         | Ok e' -> Event.equal e e'
         | Error _ -> false))

let test_builder () =
  let b = Trace.Builder.create ~initial_capacity:2 () in
  for i = 0 to 99 do
    Trace.Builder.add b (e_rd 0 i)
  done;
  Alcotest.(check int) "length" 100 (Trace.Builder.length b);
  let tr = Trace.Builder.build b in
  Alcotest.(check int) "trace length" 100 (Trace.length tr);
  Alcotest.(check bool) "order preserved" true
    (Event.equal (Trace.get tr 17) (e_rd 0 17))

let test_counts_and_vars () =
  let tr =
    Trace.of_list
      [ e_rd 0 0; e_wr 0 1; e_rd 0 0; Event.Acquire { t = 0; m = 0 };
        Event.Release { t = 0; m = 0 } ]
  in
  let reads, writes, other = Trace.counts tr in
  Alcotest.(check (triple int int int)) "counts" (2, 1, 2)
    (reads, writes, other);
  Alcotest.(check (list string)) "vars in first-access order" [ "x0"; "x1" ]
    (List.map Var.to_string (Trace.vars tr))

let test_thread_count () =
  let tr =
    Trace.of_list
      [ Event.Fork { t = 0; u = 5 };
        Event.Barrier_release { threads = [ 0; 7 ] } ]
  in
  Alcotest.(check int) "max over fork and barrier" 8 (Trace.thread_count tr)

let test_trace_text_roundtrip () =
  let tr =
    Trace.of_list
      [ Event.Fork { t = 0; u = 1 }; e_wr 0 0; e_rd 1 0;
        Event.Barrier_release { threads = [ 0; 1 ] } ]
  in
  match Trace.of_string (Trace.to_string tr) with
  | Ok tr' ->
    Alcotest.(check (list string)) "roundtrip"
      (List.map Event.to_string (Trace.to_list tr))
      (List.map Event.to_string (Trace.to_list tr'))
  | Error msg -> Alcotest.fail msg

let test_trace_text_comments () =
  match Trace.of_string "# a comment\n\nrd(0,x1)\n  wr(1,x1)  \n" with
  | Ok tr -> Alcotest.(check int) "two events" 2 (Trace.length tr)
  | Error msg -> Alcotest.fail msg

let test_append () =
  let a = Trace.of_list [ e_rd 0 0 ] in
  let b = Trace.of_list [ e_wr 0 1 ] in
  Alcotest.(check int) "append" 2 (Trace.length (Trace.append a b))

let test_var_keys () =
  let x = Var.make ~obj:3 ~field:2 in
  let y = Var.make ~obj:3 ~field:4 in
  Alcotest.(check bool) "fine keys differ" true
    (Var.key Var.Fine x <> Var.key Var.Fine y);
  Alcotest.(check int) "coarse keys equal" (Var.key Var.Coarse x)
    (Var.key Var.Coarse y);
  Alcotest.(check bool) "distinct objects differ coarsely" true
    (Var.key Var.Coarse x <> Var.key Var.Coarse (Var.scalar 4))

let suite =
  ( "trace",
    [ Alcotest.test_case "event classification" `Quick test_event_classify;
      Alcotest.test_case "event parse roundtrip" `Quick
        test_event_parse_roundtrip;
      Alcotest.test_case "event parse errors" `Quick test_event_parse_errors;
      Alcotest.test_case "text errors name the line" `Quick
        test_trace_error_lines;
      prop_event_roundtrip;
      Alcotest.test_case "builder" `Quick test_builder;
      Alcotest.test_case "counts and vars" `Quick test_counts_and_vars;
      Alcotest.test_case "thread count" `Quick test_thread_count;
      Alcotest.test_case "text roundtrip" `Quick test_trace_text_roundtrip;
      Alcotest.test_case "text comments" `Quick test_trace_text_comments;
      Alcotest.test_case "append" `Quick test_append;
      Alcotest.test_case "var keys" `Quick test_var_keys ] )
