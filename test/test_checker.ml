(* The checker must detect violations, not only bless correct runs:
   these tests fabricate doctored outcomes and check each property
   fires. *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module Prng = Cliffedge_prng.Prng
module Obs = Cliffedge_obs

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

(* A CD3 violation cites the first [Send] of its pair.  The runs are
   X13's: ring:32, the real region {10, 11} crashed at t = 10, and k
   false suspicions of correct neighbours, drawn as X13 draws them, over
   30 seeds.  With k = 1 each seed yields one CD3 violation; with k = 8
   there are 227, and 8 of their pairs carry more than one send, so
   citing any later send of the pair fails here.  Each citation must be
   the earliest [Send] from its source to its destination in the log. *)
let x13_run ~k seed =
  let graph = Topology.ring 32 in
  let region = set [ 10; 11 ] in
  let correct =
    List.filter
      (fun p -> not (Node_set.mem p region))
      (Node_set.elements (Graph.nodes graph))
  in
  let rng = Prng.create (13_000 + seed) in
  let false_suspicions =
    List.init k (fun _ ->
        let observer = Prng.choose rng correct in
        let target =
          match
            Node_set.elements (Node_set.diff (Graph.neighbours graph observer) region)
          with
          | [] -> observer
          | neighbours -> Prng.choose rng neighbours
        in
        (5.0 +. Prng.float rng 80.0, observer, target))
  in
  let options = { Runner.default_options with seed; false_suspicions } in
  let crashes = List.map (fun p -> (10.0, p)) (Node_set.elements region) in
  Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()

let test_cd3_cites_first_send () =
  let check_row ~k ~expected =
    let cited = ref 0 and resent = ref 0 in
    for seed = 0 to 29 do
      let outcome = x13_run ~k seed in
      let log = outcome.Runner.obs in
      let sends_of src dst =
        let seqs = ref [] in
        Obs.Log.iter log (fun e ->
            match e.Obs.Event.kind with
            | Obs.Event.Send { dst = d; _ }
              when Node_id.equal e.Obs.Event.node src && Node_id.equal d dst ->
                seqs := e.Obs.Event.seq :: !seqs
            | _ -> ());
        List.rev !seqs
      in
      List.iter
        (fun v ->
          if v.Checker.property = Checker.CD3_locality then begin
            incr cited;
            match v.Checker.events with
            | [ seq ] -> (
                match Obs.Log.find log seq with
                | Some { Obs.Event.node = src; kind = Obs.Event.Send { dst; _ }; _ } ->
                    let sends = sends_of src dst in
                    if List.length sends > 1 then incr resent;
                    Alcotest.(check (option int)) "first send of the pair"
                      (List.nth_opt sends 0) (Some seq);
                    Alcotest.(check string) "description names the pair"
                      (Format.asprintf
                         "message %a -> %a outside every faulty domain's envelope"
                         Node_id.pp src Node_id.pp dst)
                      v.Checker.description
                | Some e ->
                    Alcotest.failf "k=%d seed %d: CD3 cites a non-send: %a" k seed
                      Obs.Event.pp e
                | None -> Alcotest.failf "k=%d seed %d: CD3 cites missing #%d" k seed seq)
            | events ->
                Alcotest.failf "k=%d seed %d: CD3 cites %d events, expected one" k seed
                  (List.length events)
          end)
        (Checker.check ~value_equal:String.equal outcome).Checker.violations
    done;
    Alcotest.(check int) (Printf.sprintf "CD3 violations with k=%d" k) expected !cited;
    !resent
  in
  ignore (check_row ~k:1 ~expected:30);
  Alcotest.(check int)
    "k=8 pairs with more than one send" 8
    (check_row ~k:8 ~expected:227)

(* Either border node of {3,4} deciding alone leaves the other, lower
   or higher, named as the one that never decided. *)
let test_cd4_missing_peer_decision () =
  List.iter
    (fun (decider, missing) ->
      let decisions =
        [ { Runner.node = n decider; view = set [ 3; 4 ]; value = "d"; time = 20.0; event = None } ]
      in
      let cd4 =
        List.filter_map
          (fun v ->
            if v.Checker.property = Checker.CD4_border_termination then
              Some v.Checker.description
            else None)
          (Checker.check (make_outcome ~decisions ())).Checker.violations
      in
      Alcotest.(check (list string))
        (Printf.sprintf "cd4 names n%d" missing)
        [
          Printf.sprintf "correct node n%d on border of decided view {n3, n4} never decided"
            missing;
        ]
        cd4)
    [ (2, 5); (5, 2) ]

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

(* X10's raw-detector counterexample on path5: n3 decides {2}, then n1
   decides the grown {2, 3}.  n1 is on the border of {2}, so the pair
   breaks CD5 in whichever order the two decide.  The decision-time
   check sees only the decisions before the new one: it must report the
   pair once, at the later decision, and report it as the whole-run
   check does. *)
let test_cd5_at_decision_either_order () =
  let graph = Topology.path 5 in
  let crashes = [ (1.0, n 2); (2.0, n 3) ] in
  let n3 = { Runner.node = n 3; view = set [ 2 ]; value = "a"; time = 1.5; event = Some 7 } in
  let n1 =
    { Runner.node = n 1; view = set [ 2; 3 ]; value = "b"; time = 3.0; event = Some 9 }
  in
  let cd5 =
    List.filter_map (fun v ->
        if v.Checker.property = Checker.CD5_uniform_border_agreement then
          Some (v.Checker.description, v.Checker.events)
        else None)
  in
  let cited = Alcotest.(list (pair string (list int))) in
  List.iter
    (fun (first, second) ->
      let whole =
        Checker.check ~value_equal:String.equal
          {
            (make_outcome ~decisions:[ first; second ] ~crashes ~crashed:(set [ 2; 3 ]) ())
            with
            Runner.graph;
          }
      in
      let at decisions d =
        Checker.at_decision ~value_equal:String.equal
          {
            Checker.graph;
            crash_time = Checker.crash_times crashes;
            decisions;
            crashed = set [ 2; 3 ];
            pairs = lazy [];
            quiescent = false;
            geometry = lazy (Alcotest.fail "the decision-time check computes no geometry");
            obs = Obs.Log.create ();
          }
          d
      in
      let at_first, after_first = at Checker.no_decisions first in
      (* The decision-time check of [second] sees [first] only. *)
      let at_second, _ = at after_first second in
      let expected =
        [ ("n3 decided {n2} but n1 on its border decided {n2, n3}", [ 7; 9 ]) ]
      in
      Alcotest.(check cited) "whole run" expected (cd5 whole.Checker.violations);
      Alcotest.(check cited) "first decision" [] (cd5 at_first);
      Alcotest.(check cited) "second decision" expected (cd5 at_second))
    [ (n3, n1); (n1, n3) ]

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
      Alcotest.test_case "cd3 cites the first send" `Quick test_cd3_cites_first_send;
      Alcotest.test_case "cd4 missing decision" `Quick test_cd4_missing_peer_decision;
      Alcotest.test_case "cd5 value disagreement" `Quick test_cd5_value_disagreement;
      Alcotest.test_case "cd5 view disagreement" `Quick test_cd5_view_disagreement;
      Alcotest.test_case "cd5 at decision, either order" `Quick
        test_cd5_at_decision_either_order;
      Alcotest.test_case "cd6 overlap" `Quick test_cd6_overlapping_views;
      Alcotest.test_case "cd7 nobody decides" `Quick test_cd7_nobody_decides;
      Alcotest.test_case "cd7 trivial" `Quick test_cd7_trivial_without_faults;
      Alcotest.test_case "liveness unverifiable" `Quick
        test_liveness_unverifiable_when_capped;
      Alcotest.test_case "custom value equality" `Quick test_custom_value_equality;
      Alcotest.test_case "property names" `Quick test_property_names;
    ] )
