(* End-to-end tests of the simulated runner. *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario

let set = Node_set.of_ints

let run ?options graph crashes =
  Runner.run ?options ~graph ~crashes ~propose_value:Scenario.default_propose ()

let crash_all at region = List.map (fun p -> (at, p)) (Node_set.elements region)

let test_no_crash_no_traffic () =
  let outcome = run (Topology.ring 8) [] in
  Alcotest.(check int) "no decisions" 0 (List.length outcome.decisions);
  Alcotest.(check int) "no messages" 0 (Cliffedge_net.Stats.sent outcome.stats);
  Alcotest.(check bool) "quiescent" true outcome.quiescent;
  Alcotest.(check bool) "checker ok" true (Checker.ok (Checker.check outcome))

let test_single_region_ring () =
  let region = set [ 3; 4 ] in
  let outcome = run (Topology.ring 10) (crash_all 5.0 region) in
  Alcotest.(check bool) "quiescent" true outcome.quiescent;
  let deciders = Runner.deciders outcome in
  Alcotest.(check (list int)) "border decides" [ 2; 5 ] (Node_set.to_ints deciders);
  List.iter
    (fun (d : string Runner.decision) ->
      Alcotest.(check (list int)) "view" [ 3; 4 ] (Node_set.to_ints d.view))
    outcome.decisions;
  Alcotest.(check bool) "checker ok" true (Checker.ok (Checker.check outcome))

let test_locality_messages_bounded () =
  (* Only the region's envelope communicates, however large the ring. *)
  let region = set [ 50; 51 ] in
  let outcome = run (Topology.ring 500) (crash_all 5.0 region) in
  let involved = Cliffedge_net.Stats.communicating_nodes outcome.stats in
  Alcotest.(check bool) "few nodes involved" true (Node_set.cardinal involved <= 6);
  Alcotest.(check bool) "checker ok" true (Checker.ok (Checker.check outcome))

let test_deterministic_same_seed () =
  let region = set [ 2; 3 ] in
  let graph = Topology.torus 5 5 in
  let a = run graph (crash_all 5.0 region) in
  let b = run graph (crash_all 5.0 region) in
  Alcotest.(check int) "same messages" (Cliffedge_net.Stats.sent a.stats)
    (Cliffedge_net.Stats.sent b.stats);
  Alcotest.(check (float 1e-12)) "same duration" a.duration b.duration;
  Alcotest.(check int) "same decisions" (List.length a.decisions)
    (List.length b.decisions)

let test_different_seed_differs () =
  let region = set [ 2; 3 ] in
  let graph = Topology.torus 5 5 in
  let a = run graph (crash_all 5.0 region) in
  let options = { Runner.default_options with seed = 99 } in
  let b = run ~options graph (crash_all 5.0 region) in
  (* Latency draws differ, so virtual durations almost surely differ. *)
  Alcotest.(check bool) "durations differ" true (a.duration <> b.duration)

let test_restart_metric () =
  (* Cascade: {4,5} then 6 a bit later — stale agreements must abort,
     so the restart counter is positive. *)
  let graph = Topology.ring 12 in
  let crashes = crash_all 5.0 (set [ 4; 5 ]) @ [ (30.0, Node_id.of_int 6) ] in
  let outcome = run graph crashes in
  Alcotest.(check bool) "quiescent" true outcome.quiescent;
  Alcotest.(check bool) "restarts observed" true (Runner.restart_count outcome >= 1);
  Alcotest.(check bool) "checker ok" true (Checker.ok (Checker.check outcome))

let test_max_round_metric () =
  let region = set [ 3; 4; 5 ] in
  (* border {2,6} on ring 10: |B| = 2, one round. *)
  let outcome = run (Topology.ring 10) (crash_all 5.0 region) in
  Alcotest.(check int) "rounds" 1 (Runner.max_round outcome);
  (* grid region with bigger border runs |B|-1 rounds — in the base
     protocol; early stopping (the default) finishes after round 1, so
     pin the base mode for the metric. *)
  let g = Topology.grid 5 5 in
  let region = set [ 12 ] in
  let options = { Runner.default_options with early_stopping = false } in
  (* centre of the grid: border = {7, 11, 13, 17}, 3 rounds. *)
  let outcome = run ~options g (crash_all 5.0 region) in
  Alcotest.(check int) "grid rounds" 3 (Runner.max_round outcome)

let test_crash_outside_graph_rejected () =
  Alcotest.check_raises "outside"
    (Invalid_argument "Runner.run: crash schedule names a node outside the graph")
    (fun () -> ignore (run (Topology.ring 5) [ (1.0, Node_id.of_int 77) ]))

(* A second entry for a node would log a second [Crash] of a dead node
   and parent later suspicions on it.  The substrate rejects the
   schedule before anything runs, for every runner built on it. *)
let test_crash_named_twice () =
  let n = Node_id.of_int in
  let crashes = [ (10.0, n 3); (10.0, n 4); (30.0, n 4) ] in
  let rejected =
    Invalid_argument "Substrate.schedule_crashes: node n4 is scheduled to crash twice"
  in
  Alcotest.check_raises "cliff-edge runner" rejected (fun () ->
      ignore (run (Topology.ring 8) crashes));
  Alcotest.check_raises "global baseline" rejected (fun () ->
      ignore (Cliffedge_baseline.Global_runner.run ~graph:(Topology.ring 8) ~crashes ()))

let test_event_cap_reported () =
  let region = set [ 3; 4 ] in
  let options = { Runner.default_options with max_events = 5 } in
  let outcome = run ~options (Topology.ring 10) (crash_all 5.0 region) in
  Alcotest.(check bool) "not quiescent" false outcome.quiescent

let test_decisions_sorted_by_time () =
  let outcome = run (Topology.ring 10) (crash_all 5.0 (set [ 3; 4 ])) in
  let times = List.map (fun (d : string Runner.decision) -> d.time) outcome.decisions in
  Alcotest.(check bool) "sorted" true (times = List.sort Float.compare times)

let test_whole_graph_minus_one () =
  (* Everything but node 0 crashes: node 0 is the sole border node of the
     single huge region and decides alone. *)
  let graph = Topology.ring 8 in
  let region = set [ 1; 2; 3; 4; 5; 6; 7 ] in
  let outcome = run graph (crash_all 5.0 region) in
  Alcotest.(check bool) "quiescent" true outcome.quiescent;
  (match outcome.decisions with
  | [ d ] ->
      Alcotest.(check int) "decider 0" 0 (Node_id.to_int d.node);
      Alcotest.(check (list int)) "full region" (Node_set.to_ints region)
        (Node_set.to_ints d.view)
  | ds -> Alcotest.failf "expected 1 decision, got %d" (List.length ds));
  Alcotest.(check bool) "checker ok" true (Checker.ok (Checker.check outcome))

let test_early_stopping_agrees_with_base () =
  let graph = Topology.grid 5 5 in
  let region = set [ 12; 13 ] in
  let crashes = crash_all 5.0 region in
  let base = run graph crashes in
  let options = { Runner.default_options with early_stopping = true } in
  let early = run ~options graph crashes in
  Alcotest.(check bool) "base ok" true (Checker.ok (Checker.check base));
  Alcotest.(check bool) "early ok" true (Checker.ok (Checker.check early));
  (* Same deciders, same views. *)
  Alcotest.(check (list int)) "same deciders"
    (Node_set.to_ints (Runner.deciders base))
    (Node_set.to_ints (Runner.deciders early));
  (* Early stopping saves messages on borders larger than 2. *)
  Alcotest.(check bool) "fewer or equal messages" true
    (Cliffedge_net.Stats.sent early.stats <= Cliffedge_net.Stats.sent base.stats)

let test_activation_is_local () =
  (* The same region crashed on a small and a large ring: the runs are
     byte-identical, and only the region's neighbourhood and the nodes
     that exchanged messages ever get a stepper. *)
  let region = set [ 10; 11 ] in
  let traced n =
    let graph = Topology.ring n in
    let cfg =
      Cliffedge.Protocol.config ~graph ~propose_value:Scenario.default_propose ()
    in
    let makes = ref 0 in
    let make p =
      incr makes;
      Runner.protocol_stepper cfg ~self:p
    in
    let outcome = Runner.run_stepper ~graph ~crashes:(crash_all 5.0 region) ~make () in
    Alcotest.(check (list int)) "border decides" [ 9; 12 ]
      (Node_set.to_ints (Runner.deciders outcome));
    let jsonl = Cliffedge_obs.Export.jsonl (Cliffedge_obs.Log.to_list outcome.obs) in
    let bound =
      Node_set.cardinal (Graph.closed_neighbourhood graph region)
      + Node_set.cardinal (Cliffedge_net.Stats.communicating_nodes outcome.stats)
    in
    (jsonl, !makes, bound)
  in
  let small, small_makes, bound = traced 64 in
  let large, large_makes, _ = traced 4096 in
  Alcotest.(check string) "byte-identical causal log" small large;
  Alcotest.(check int) "same make count" small_makes large_makes;
  Alcotest.(check bool)
    (Printf.sprintf "%d make(s) within the bound %d" small_makes bound)
    true (small_makes <= bound)

let suite =
  ( "runner",
    [
      Alcotest.test_case "no crash, no traffic" `Quick test_no_crash_no_traffic;
      Alcotest.test_case "single region ring" `Quick test_single_region_ring;
      Alcotest.test_case "locality bounded" `Quick test_locality_messages_bounded;
      Alcotest.test_case "deterministic" `Quick test_deterministic_same_seed;
      Alcotest.test_case "seed sensitivity" `Quick test_different_seed_differs;
      Alcotest.test_case "restart metric" `Quick test_restart_metric;
      Alcotest.test_case "round metric" `Quick test_max_round_metric;
      Alcotest.test_case "crash outside graph" `Quick test_crash_outside_graph_rejected;
      Alcotest.test_case "crash named twice" `Quick test_crash_named_twice;
      Alcotest.test_case "event cap" `Quick test_event_cap_reported;
      Alcotest.test_case "decisions sorted" `Quick test_decisions_sorted_by_time;
      Alcotest.test_case "near-total failure" `Quick test_whole_graph_minus_one;
      Alcotest.test_case "early stopping equivalence" `Quick
        test_early_stopping_agrees_with_base;
      Alcotest.test_case "activation is local" `Quick test_activation_is_local;
    ] )
