(* Unit and property tests for vector clocks: the lattice laws the
   happens-before representation relies on, plus regressions for the
   growth discipline. *)

module VC = Vector_clock

let vc l = VC.of_list l

let gen_vc =
  QCheck2.Gen.(
    let* l = list_size (int_range 0 8) (int_range 0 20) in
    return l)

let prop name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen law)

let join a b =
  let d = VC.copy (vc a) in
  VC.join_into ~dst:d (vc b);
  d

let test_bottom () =
  let b = VC.bottom () in
  Alcotest.(check int) "get beyond" 0 (VC.get b 100);
  Alcotest.(check bool) "bottom ⊑ anything" true (VC.leq b (vc [ 1; 2 ]));
  Alcotest.(check (list int)) "to_list" [] (VC.to_list b)

let test_set_get () =
  let v = VC.create () in
  VC.set v 3 7;
  Alcotest.(check int) "set" 7 (VC.get v 3);
  Alcotest.(check int) "unset below" 0 (VC.get v 1);
  Alcotest.(check int) "unset above" 0 (VC.get v 10);
  VC.inc v 3;
  Alcotest.(check int) "inc" 8 (VC.get v 3);
  VC.inc v 9;
  Alcotest.(check int) "inc from zero" 1 (VC.get v 9)

let test_leq_basic () =
  Alcotest.(check bool) "equal" true (VC.leq (vc [ 1; 2 ]) (vc [ 1; 2 ]));
  Alcotest.(check bool) "pointwise" true (VC.leq (vc [ 1; 2 ]) (vc [ 2; 2 ]));
  Alcotest.(check bool) "not leq" false (VC.leq (vc [ 3; 0 ]) (vc [ 2; 9 ]));
  Alcotest.(check bool) "shorter" true (VC.leq (vc [ 1 ]) (vc [ 1; 5 ]));
  Alcotest.(check bool) "longer with zeros" true
    (VC.leq (vc [ 1; 0; 0 ]) (vc [ 1 ]))

let test_join () =
  Alcotest.(check (list int)) "pointwise max" [ 3; 2; 5 ]
    (VC.to_list (join [ 3; 0; 5 ] [ 1; 2 ]))

let test_copy_semantics () =
  let a = vc [ 4; 5 ] in
  let b = VC.copy a in
  VC.set a 0 9;
  Alcotest.(check int) "copy unaffected" 4 (VC.get b 0);
  let c = vc [ 7; 8; 9 ] in
  VC.copy_into ~dst:c a;
  Alcotest.(check (list int)) "copy_into replaces" [ 9; 5 ] (VC.to_list c);
  Alcotest.(check int) "stale entry cleared" 0 (VC.get c 2)

let test_clear () =
  let a = vc [ 1; 2; 3 ] in
  VC.clear a;
  Alcotest.(check (list int)) "cleared" [] (VC.to_list a);
  (* reusable after clear, with no stale entries *)
  VC.set a 1 5;
  Alcotest.(check int) "index 0 is zero" 0 (VC.get a 0);
  Alcotest.(check int) "set works" 5 (VC.get a 1)

let test_epoch_ops () =
  let v = vc [ 4; 8 ] in
  Alcotest.(check bool) "4@0 ⪯ v" true
    (VC.epoch_leq (Epoch.make ~tid:0 ~clock:4) v);
  Alcotest.(check bool) "5@0 ⋠ v" false
    (VC.epoch_leq (Epoch.make ~tid:0 ~clock:5) v);
  Alcotest.(check bool) "0@7 ⪯ v (beyond length)" true
    (VC.epoch_leq (Epoch.make ~tid:7 ~clock:0) v);
  Alcotest.(check bool) "1@7 ⋠ v" false
    (VC.epoch_leq (Epoch.make ~tid:7 ~clock:1) v);
  Alcotest.(check string) "epoch_of" "8@1" (Epoch.to_string (VC.epoch_of v 1))

let test_find_gt () =
  Alcotest.(check (option (pair int int))) "witness" (Some (1, 5))
    (VC.find_gt (vc [ 1; 5 ]) (vc [ 2; 4 ]));
  Alcotest.(check (option (pair int int))) "none when leq" None
    (VC.find_gt (vc [ 1; 2 ]) (vc [ 1; 2; 3 ]));
  Alcotest.(check (option (pair int int))) "beyond other's length"
    (Some (2, 7))
    (VC.find_gt (vc [ 0; 0; 7 ]) (vc [ 9 ]))

let test_with_entry () =
  let a = vc [ 4; 5 ] in
  let b = VC.with_entry a ~tid:3 ~clock:7 in
  Alcotest.(check (list int)) "fresh with entry" [ 4; 5; 0; 7 ]
    (VC.to_list b);
  Alcotest.(check (list int)) "original untouched" [ 4; 5 ] (VC.to_list a);
  let c = VC.with_entry ~min_len:6 a ~tid:0 ~clock:9 in
  Alcotest.(check int) "min_len pads length" 6 (VC.length c);
  Alcotest.(check int) "entry set" 9 (VC.get c 0)

(* Regression: ping-ponging join/copy between clocks of different
   capacities must not compound the geometric growth.  (An earlier
   version grew each clock to its peer's *capacity*, which doubled
   capacities on every exchange and exhausted memory within a few
   hundred synchronization operations.) *)
let test_no_capacity_creep () =
  let ct = VC.create () in
  VC.inc ct 10;
  let lm = VC.create () in
  for _ = 1 to 1_000 do
    VC.copy_into ~dst:lm ct;
    VC.inc ct 10;
    VC.join_into ~dst:ct lm
  done;
  Alcotest.(check bool) "capacity stays bounded" true (VC.capacity ct < 64);
  Alcotest.(check bool) "lock capacity bounded" true (VC.capacity lm < 64)

let prop_leq_refl = prop "⊑ reflexive" gen_vc (fun l -> VC.leq (vc l) (vc l))

let prop_leq_antisym =
  prop "⊑ antisymmetric" (QCheck2.Gen.pair gen_vc gen_vc) (fun (a, b) ->
      let va = vc a and vb = vc b in
      if VC.leq va vb && VC.leq vb va then VC.equal va vb else true)

let prop_leq_trans =
  prop "⊑ transitive" (QCheck2.Gen.triple gen_vc gen_vc gen_vc)
    (fun (a, b, c) ->
      let va = vc a and vb = vc b and vab = join a b in
      ignore c;
      (* a ⊑ a⊔b and b ⊑ a⊔b, and a⊔b is the least such *)
      VC.leq va vab && VC.leq vb vab)

let prop_join_lub =
  prop "⊔ least upper bound" (QCheck2.Gen.triple gen_vc gen_vc gen_vc)
    (fun (a, b, c) ->
      let vc_c = vc c in
      let upper = VC.leq (vc a) vc_c && VC.leq (vc b) vc_c in
      if upper then VC.leq (join a b) vc_c else true)

let prop_join_commutes =
  prop "⊔ commutative" (QCheck2.Gen.pair gen_vc gen_vc) (fun (a, b) ->
      VC.equal (join a b) (join b a))

let prop_epoch_leq_consistent =
  prop "c@t ⪯ V iff c ≤ V(t)"
    QCheck2.Gen.(triple (int_range 0 7) (int_range 0 30) gen_vc)
    (fun (t, c, l) ->
      let v = vc l in
      VC.epoch_leq (Epoch.make ~tid:t ~clock:c) v = (c <= VC.get v t))

let prop_roundtrip =
  prop "of_list/to_list" gen_vc (fun l ->
      let trimmed = VC.to_list (vc l) in
      VC.equal (vc l) (vc trimmed))

(* [to_list] trims trailing zeros only, in one pass: interior zeros
   stay, and a lone far entry (49 999 leading zeros) is linear. *)
let test_to_list () =
  let check name expected l =
    Alcotest.(check (list int)) name expected (VC.to_list (vc l))
  in
  check "trailing zeros trimmed" [ 1; 2 ] [ 1; 2; 0; 0 ];
  check "interior zeros kept" [ 0; 3; 0; 0; 4 ] [ 0; 3; 0; 0; 4; 0 ];
  check "all zeros" [] [ 0; 0; 0 ];
  let far = VC.create () in
  VC.set far 50_000 7;
  let l = VC.to_list far in
  Alcotest.(check int) "lone entry at 50 000: length" 50_001 (List.length l);
  Alcotest.(check int) "lone entry at 50 000: value" 7 (List.nth l 50_000);
  Alcotest.(check bool) "lone entry at 50 000: zeros before" true
    (List.for_all (Int.equal 0) (List.filteri (fun i _ -> i < 50_000) l))

let suite =
  ( "vector clock",
    [ Alcotest.test_case "bottom" `Quick test_bottom;
      Alcotest.test_case "set/get/inc" `Quick test_set_get;
      Alcotest.test_case "leq basics" `Quick test_leq_basic;
      Alcotest.test_case "join" `Quick test_join;
      Alcotest.test_case "copy semantics" `Quick test_copy_semantics;
      Alcotest.test_case "clear" `Quick test_clear;
      Alcotest.test_case "epoch operations" `Quick test_epoch_ops;
      Alcotest.test_case "find_gt" `Quick test_find_gt;
      Alcotest.test_case "with_entry" `Quick test_with_entry;
      Alcotest.test_case "no capacity creep (regression)" `Quick
        test_no_capacity_creep;
      Alcotest.test_case "to_list trims trailing zeros only" `Quick
        test_to_list;
      prop_leq_refl;
      prop_leq_antisym;
      prop_leq_trans;
      prop_join_lub;
      prop_join_commutes;
      prop_epoch_leq_consistent;
      prop_roundtrip ] )
