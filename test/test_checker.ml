(* The checker must detect violations, not only bless correct runs:
   these tests fabricate doctored outcomes and check each property
   fires. *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker

let set = Node_set.of_ints

let n = Node_id.of_int

let graph = Topology.ring 8

(* A legitimate baseline outcome: {3,4} crashed at t=5, border {2,5}
   decided correctly at t=20. *)
let base_decisions =
  [
    { Runner.node = n 2; view = set [ 3; 4 ]; value = "d"; time = 20.0; event = None };
    { Runner.node = n 5; view = set [ 3; 4 ]; value = "d"; time = 21.0; event = None };
  ]

let make_outcome ?(decisions = base_decisions) ?(quiescent = true)
    ?(crashes = [ (5.0, n 3); (5.0, n 4) ]) ?(crashed = set [ 3; 4 ]) ?stats () =
  let stats =
    match stats with
    | Some s -> s
    | None ->
        let s = Cliffedge_net.Stats.create () in
        Cliffedge_net.Stats.record_send s ~src:(n 2) ~dst:(n 5) ~units:1;
        s
  in
  {
    Runner.graph;
    crashes;
    decisions;
    stats;
    crashed;
    duration = 30.0;
    engine_events = 0;
    quiescent;
    stalled_channels = [];
    states = [];
    obs = Cliffedge_obs.Log.create ();
    (* Fabricated outcome: the checker falls back to batch recompute. *)
    geometry = None;
  }

let has_violation report property =
  List.exists (fun v -> v.Checker.property = property) report.Checker.violations

let test_clean_outcome_passes () =
  let report = Checker.check (make_outcome ()) in
  Alcotest.(check bool) "ok" true (Checker.ok report)

let test_cd1_double_decision () =
  let d = List.hd base_decisions in
  let report = Checker.check (make_outcome ~decisions:[ d; d ] ()) in
  Alcotest.(check bool) "cd1 fires" true (has_violation report Checker.CD1_integrity)

let test_cd2_not_crashed () =
  (* View includes node 6 which never crashed. *)
  let decisions =
    [ { Runner.node = n 5; view = set [ 4; 6 ]; value = "d"; time = 20.0; event = None } ]
  in
  let report = Checker.check (make_outcome ~decisions ()) in
  Alcotest.(check bool) "cd2 fires" true (has_violation report Checker.CD2_view_accuracy)

let test_cd2_decided_before_crash () =
  let decisions =
    [ { Runner.node = n 2; view = set [ 3; 4 ]; value = "d"; time = 1.0; event = None } ]
  in
  let report = Checker.check (make_outcome ~decisions ()) in
  Alcotest.(check bool) "cd2 fires" true (has_violation report Checker.CD2_view_accuracy)

let test_cd2_not_border () =
  let decisions =
    [ { Runner.node = n 7; view = set [ 3; 4 ]; value = "d"; time = 20.0; event = None } ]
  in
  let report = Checker.check (make_outcome ~decisions ()) in
  Alcotest.(check bool) "cd2 fires" true (has_violation report Checker.CD2_view_accuracy)

let test_cd2_disconnected_view () =
  (* {3,4} ∪ {6} with 6 crashed too but not adjacent: not a region. *)
  let decisions =
    [ { Runner.node = n 2; view = set [ 3; 4; 6 ]; value = "d"; time = 20.0; event = None } ]
  in
  let outcome =
    make_outcome ~decisions
      ~crashes:[ (5.0, n 3); (5.0, n 4); (5.0, n 6) ]
      ~crashed:(set [ 3; 4; 6 ]) ()
  in
  let report = Checker.check outcome in
  Alcotest.(check bool) "cd2 fires" true (has_violation report Checker.CD2_view_accuracy)

let test_cd3_faraway_message () =
  let stats = Cliffedge_net.Stats.create () in
  (* Node 0 and node 6 are nowhere near the crashed region {3,4}. *)
  Cliffedge_net.Stats.record_send stats ~src:(n 0) ~dst:(n 6) ~units:1;
  let report = Checker.check (make_outcome ~stats ()) in
  Alcotest.(check bool) "cd3 fires" true (has_violation report Checker.CD3_locality)

let test_cd4_missing_peer_decision () =
  let decisions =
    [ { Runner.node = n 2; view = set [ 3; 4 ]; value = "d"; time = 20.0; event = None } ]
  in
  let report = Checker.check (make_outcome ~decisions ()) in
  Alcotest.(check bool) "cd4 fires" true
    (has_violation report Checker.CD4_border_termination)

let test_cd5_value_disagreement () =
  let decisions =
    [
      { Runner.node = n 2; view = set [ 3; 4 ]; value = "left"; time = 20.0; event = None };
      { Runner.node = n 5; view = set [ 3; 4 ]; value = "right"; time = 21.0; event = None };
    ]
  in
  let report = Checker.check (make_outcome ~decisions ()) in
  Alcotest.(check bool) "cd5 fires" true
    (has_violation report Checker.CD5_uniform_border_agreement)

let test_cd5_view_disagreement () =
  (* 5 decides a different (overlapping) view while being on the border
     of 2's view. *)
  let decisions =
    [
      { Runner.node = n 2; view = set [ 3; 4 ]; value = "d"; time = 20.0; event = None };
      { Runner.node = n 5; view = set [ 4 ]; value = "d"; time = 21.0; event = None };
    ]
  in
  let report = Checker.check (make_outcome ~decisions ()) in
  Alcotest.(check bool) "cd5 fires" true
    (has_violation report Checker.CD5_uniform_border_agreement)

let test_cd6_overlapping_views () =
  (* Two deciders with overlapping but distinct views, neither on the
     other's border: fabricate with a larger crashed set. *)
  let big_graph = Topology.ring 12 in
  let crashed = set [ 3; 4; 5; 6 ] in
  let decisions =
    [
      { Runner.node = n 2; view = set [ 3; 4; 5 ]; value = "d"; time = 20.0; event = None };
      { Runner.node = n 7; view = set [ 4; 5; 6 ]; value = "d"; time = 21.0; event = None };
    ]
  in
  let outcome =
    {
      (make_outcome ~decisions
         ~crashes:(List.map (fun p -> (5.0, p)) (Node_set.elements crashed))
         ~crashed ())
      with
      Runner.graph = big_graph;
    }
  in
  let report = Checker.check outcome in
  Alcotest.(check bool) "cd6 fires" true
    (has_violation report Checker.CD6_view_convergence)

let test_cd7_nobody_decides () =
  let report = Checker.check (make_outcome ~decisions:[] ()) in
  Alcotest.(check bool) "cd7 fires" true (has_violation report Checker.CD7_progress)

let test_cd7_trivial_without_faults () =
  let outcome = make_outcome ~decisions:[] ~crashes:[] ~crashed:Node_set.empty () in
  (* remove the pre-recorded message: no faults means no envelopes. *)
  let outcome = { outcome with Runner.stats = Cliffedge_net.Stats.create () } in
  let report = Checker.check outcome in
  Alcotest.(check bool) "ok with no faults" true (Checker.ok report)

let test_liveness_unverifiable_when_capped () =
  let report = Checker.check (make_outcome ~decisions:[] ~quiescent:false ()) in
  Alcotest.(check bool) "cd4/cd7 unverifiable" true
    (has_violation report Checker.CD7_progress);
  (* But safety checks still ran. *)
  Alcotest.(check bool) "no cd1" false (has_violation report Checker.CD1_integrity)

let test_custom_value_equality () =
  let decisions =
    [
      { Runner.node = n 2; view = set [ 3; 4 ]; value = "D"; time = 20.0; event = None };
      { Runner.node = n 5; view = set [ 3; 4 ]; value = "d"; time = 21.0; event = None };
    ]
  in
  let case_insensitive a b =
    String.equal (String.lowercase_ascii a) (String.lowercase_ascii b)
  in
  let report =
    Checker.check ~value_equal:case_insensitive (make_outcome ~decisions ())
  in
  Alcotest.(check bool) "equal modulo case" true (Checker.ok report)

let test_property_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "has name" true (String.length (Checker.property_name p) > 3))
    [
      Checker.CD1_integrity;
      Checker.CD2_view_accuracy;
      Checker.CD3_locality;
      Checker.CD4_border_termination;
      Checker.CD5_uniform_border_agreement;
      Checker.CD6_view_convergence;
      Checker.CD7_progress;
    ]

let suite =
  ( "checker",
    [
      Alcotest.test_case "clean passes" `Quick test_clean_outcome_passes;
      Alcotest.test_case "cd1 double decision" `Quick test_cd1_double_decision;
      Alcotest.test_case "cd2 not crashed" `Quick test_cd2_not_crashed;
      Alcotest.test_case "cd2 too early" `Quick test_cd2_decided_before_crash;
      Alcotest.test_case "cd2 not border" `Quick test_cd2_not_border;
      Alcotest.test_case "cd2 disconnected" `Quick test_cd2_disconnected_view;
      Alcotest.test_case "cd3 faraway message" `Quick test_cd3_faraway_message;
      Alcotest.test_case "cd4 missing decision" `Quick test_cd4_missing_peer_decision;
      Alcotest.test_case "cd5 value disagreement" `Quick test_cd5_value_disagreement;
      Alcotest.test_case "cd5 view disagreement" `Quick test_cd5_view_disagreement;
      Alcotest.test_case "cd6 overlap" `Quick test_cd6_overlapping_views;
      Alcotest.test_case "cd7 nobody decides" `Quick test_cd7_nobody_decides;
      Alcotest.test_case "cd7 trivial" `Quick test_cd7_trivial_without_faults;
      Alcotest.test_case "liveness unverifiable" `Quick
        test_liveness_unverifiable_when_capped;
      Alcotest.test_case "custom value equality" `Quick test_custom_value_equality;
      Alcotest.test_case "property names" `Quick test_property_names;
    ] )
