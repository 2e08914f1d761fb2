(* Tests for repair plans, planners and end-to-end repair sessions. *)

open Cliffedge_graph
module Plan = Cliffedge_repair.Plan
module Planner = Cliffedge_repair.Planner
module Session = Cliffedge_repair.Session

let n = Node_id.of_int

let set = Node_set.of_ints

let crash_all at region = List.map (fun p -> (at, p)) (Node_set.elements region)

let test_make_normalizes () =
  let plan = Plan.make [ (n 3, n 1); (n 1, n 3); (n 2, n 2); (n 1, n 2) ] in
  Alcotest.(check int) "dedup + self-loop dropped" 2 (Plan.edge_count plan);
  Alcotest.(check bool) "oriented" true
    (List.for_all (fun (a, b) -> Node_id.compare a b < 0) plan.Plan.edges)

let test_equal_union () =
  let a = Plan.make [ (n 1, n 2) ] and b = Plan.make [ (n 2, n 1) ] in
  Alcotest.(check bool) "orientation-insensitive equality" true (Plan.equal a b);
  let u = Plan.union a (Plan.make [ (n 3, n 4) ]) in
  Alcotest.(check int) "union" 2 (Plan.edge_count u)

let test_apply () =
  let g = Topology.path 4 in
  let healed = Plan.apply g (Plan.make [ (n 0, n 3) ]) in
  Alcotest.(check bool) "edge added" true (Graph.mem_edge (n 0) (n 3) healed)

let test_touches_only () =
  let plan = Plan.make [ (n 1, n 2) ] in
  Alcotest.(check bool) "inside" true (Plan.touches_only plan (set [ 1; 2; 3 ]));
  Alcotest.(check bool) "outside" false (Plan.touches_only plan (set [ 1; 3 ]))

let test_heals_detects_disconnection () =
  (* A single segment cut leaves a cycle connected; two separate cuts
     disconnect it. *)
  let g = Topology.ring 6 in
  Alcotest.(check bool) "one segment, still connected" true
    (Plan.heals g ~crashed:(set [ 2; 3 ]) []);
  let crashed = set [ 2; 5 ] in
  Alcotest.(check bool) "two cuts, disconnected" false (Plan.heals g ~crashed []);
  Alcotest.(check bool) "splices heal" true
    (Plan.heals g ~crashed [ Plan.make [ (n 1, n 3) ]; Plan.make [ (n 4, n 0) ] ]);
  (* A plan touching a crashed endpoint is invalid. *)
  Alcotest.(check bool) "crashed endpoint rejected" false
    (Plan.heals g ~crashed [ Plan.make [ (n 1, n 2) ]; Plan.make [ (n 4, n 0) ] ])

let test_heals_trivial_cases () =
  let g = Topology.path 2 in
  Alcotest.(check bool) "one survivor" true
    (Plan.heals g ~crashed:(set [ 1 ]) [])

let check_chain_plan label g view edges =
  let plan = Planner.plan Planner.Chain_border g view in
  Alcotest.(check int) label edges (Plan.edge_count plan);
  Alcotest.(check bool) (label ^ ": within border") true
    (Plan.touches_only plan (Graph.border g view))

let test_ring_splice () =
  (* border = {3, 6}: one edge splicing the cut ring segment *)
  check_chain_plan "ring segment spliced by one edge" (Topology.ring 10)
    (set [ 4; 5 ]) 1

let test_chain_planner () =
  (* border = {7, 11, 13, 17} *)
  check_chain_plan "grid chain of 3 edges" (Topology.grid 5 5) (set [ 12 ]) 3

let test_star_planner () =
  let g = Topology.grid 5 5 in
  let view = set [ 12 ] in
  let plan = Planner.plan Planner.Star_rewire g view in
  Alcotest.(check int) "hub + 3 spokes" 3 (Plan.edge_count plan);
  (* All edges share the minimum border node. *)
  let hub = Option.get (Node_set.min_elt_opt (Graph.border g view)) in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "spoke from hub" true
        (Node_id.equal a hub || Node_id.equal b hub))
    plan.Plan.edges

let test_planner_degenerate_border () =
  (* Sole border node: nothing to reconnect. *)
  let g = Topology.path 2 in
  Alcotest.(check int) "empty plan" 0
    (Plan.edge_count (Planner.plan Planner.Chain_border g (set [ 1 ])))

let test_planner_deterministic () =
  let g = Topology.torus 6 6 in
  let view = set [ 14; 15 ] in
  let a = Planner.plan Planner.Chain_border g view in
  let b = Planner.plan Planner.Chain_border g view in
  Alcotest.(check bool) "same plan" true (Plan.equal a b)

let test_session_single_region () =
  let graph = Topology.ring 16 in
  let outcome = Session.repair ~graph ~crashes:(crash_all 5.0 (set [ 6; 7; 8 ])) () in
  Alcotest.(check bool) "properties" true (Cliffedge.Checker.ok outcome.report);
  Alcotest.(check bool) "healed" true outcome.healed;
  Alcotest.(check int) "one region, one plan" 1 (List.length outcome.plans);
  Alcotest.(check bool) "overlay connected" true
    (Graph.is_connected outcome.healed_overlay)

let test_session_two_regions () =
  let graph = Topology.ring 24 in
  let crashes = crash_all 5.0 (set [ 4; 5 ]) @ crash_all 6.0 (set [ 15; 16; 17 ]) in
  let outcome = Session.repair ~graph ~crashes () in
  Alcotest.(check bool) "properties" true (Cliffedge.Checker.ok outcome.report);
  Alcotest.(check bool) "healed" true outcome.healed;
  Alcotest.(check int) "two plans" 2 (List.length outcome.plans)

let test_session_cascade_still_heals () =
  (* Node 10 crashes while the {8,9} agreement is still in flight: the
     region grows to {8,9,10} before anything is decided, and the plan's
     one edge lands on the final border. *)
  let graph = Topology.ring 20 in
  let crashes = crash_all 5.0 (set [ 8; 9 ]) @ [ (15.0, n 10) ] in
  let outcome = Session.repair ~graph ~crashes () in
  Alcotest.(check bool) "properties" true (Cliffedge.Checker.ok outcome.report);
  Alcotest.(check bool) "healed despite cascade" true outcome.healed

let test_session_late_cascade_reports_honestly () =
  (* If the cascade instead kills a border node AFTER the plan was
     agreed, the plan may name a now-dead endpoint; the session must
     report healed=false rather than pretend (the CD properties still
     hold). *)
  let graph = Topology.ring 20 in
  let crashes = crash_all 5.0 (set [ 8; 9 ]) @ [ (200.0, n 10) ] in
  let outcome = Session.repair ~graph ~crashes () in
  Alcotest.(check bool) "properties" true (Cliffedge.Checker.ok outcome.report);
  Alcotest.(check bool) "honest failure report" false outcome.healed

let test_session_all_strategies_heal_grid () =
  let graph = Topology.grid 6 6 in
  let crashes = crash_all 5.0 (set [ 14; 15 ]) in
  List.iter
    (fun strategy ->
      let outcome = Session.repair ~strategy ~graph ~crashes () in
      Alcotest.(check bool) "properties" true (Cliffedge.Checker.ok outcome.report);
      Alcotest.(check bool)
        (Format.asprintf "healed with %a" Planner.pp_strategy strategy)
        true outcome.healed)
    [ Planner.Chain_border; Planner.Star_rewire ]

let suite =
  ( "repair",
    [
      Alcotest.test_case "plan normalization" `Quick test_make_normalizes;
      Alcotest.test_case "plan equal/union" `Quick test_equal_union;
      Alcotest.test_case "plan apply" `Quick test_apply;
      Alcotest.test_case "touches_only" `Quick test_touches_only;
      Alcotest.test_case "heals detects cut" `Quick test_heals_detects_disconnection;
      Alcotest.test_case "heals trivial" `Quick test_heals_trivial_cases;
      Alcotest.test_case "ring splice" `Quick test_ring_splice;
      Alcotest.test_case "chain planner" `Quick test_chain_planner;
      Alcotest.test_case "star planner" `Quick test_star_planner;
      Alcotest.test_case "degenerate border" `Quick test_planner_degenerate_border;
      Alcotest.test_case "planner deterministic" `Quick test_planner_deterministic;
      Alcotest.test_case "session single region" `Quick test_session_single_region;
      Alcotest.test_case "session two regions" `Quick test_session_two_regions;
      Alcotest.test_case "session cascade" `Quick test_session_cascade_still_heals;
      Alcotest.test_case "session late cascade honest" `Quick
        test_session_late_cascade_reports_honestly;
      Alcotest.test_case "session all strategies" `Quick
        test_session_all_strategies_heal_grid;
    ] )

(* ------------------ churn lifecycle ------------------ *)

module Churn = Cliffedge_repair.Churn

let test_churn_multi_epoch () =
  let rng = Cliffedge_prng.Prng.create 21 in
  let graph = Topology.ring 40 in
  let outcome =
    Churn.run ~graph ~next_wave:(Churn.random_wave rng ~size:3) ~epochs:4 ()
  in
  Alcotest.(check int) "four epochs ran" 4 (List.length outcome.epochs);
  Alcotest.(check bool) "every epoch ok" true outcome.all_ok;
  Alcotest.(check int) "12 nodes lost" (40 - 12)
    (Graph.node_count outcome.final_overlay);
  Alcotest.(check bool) "final overlay connected" true
    (Graph.is_connected outcome.final_overlay)

let test_churn_overlays_shrink_monotonically () =
  let rng = Cliffedge_prng.Prng.create 5 in
  let graph = Topology.torus 6 6 in
  let outcome =
    Churn.run ~graph ~next_wave:(Churn.random_wave rng ~size:2) ~epochs:5 ()
  in
  let sizes =
    List.map (fun (e : Churn.epoch) -> Graph.node_count e.overlay) outcome.epochs
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (decreasing sizes);
  Alcotest.(check bool) "all ok" true outcome.all_ok

let test_churn_stops_when_overlay_too_small () =
  let rng = Cliffedge_prng.Prng.create 1 in
  let graph = Topology.ring 8 in
  (* size-3 waves: 8 -> 5 -> stop (5 < 3 + 2 fails only at < 5, so one
     more: 5 -> 2? no, 5 >= 5 runs, leaving 2, then stops). *)
  let outcome =
    Churn.run ~graph ~next_wave:(Churn.random_wave rng ~size:3) ~epochs:10 ()
  in
  Alcotest.(check bool) "stopped early" true (List.length outcome.epochs < 10);
  Alcotest.(check bool) "all ok" true outcome.all_ok

let test_churn_pp_smoke () =
  let rng = Cliffedge_prng.Prng.create 3 in
  let graph = Topology.ring 20 in
  let outcome =
    Churn.run ~graph ~next_wave:(Churn.random_wave rng ~size:2) ~epochs:2 ()
  in
  let s = Format.asprintf "%a" Churn.pp outcome in
  Alcotest.(check bool) "describes epochs" true (String.length s > 40)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "churn multi-epoch" `Quick test_churn_multi_epoch;
        Alcotest.test_case "churn shrinks" `Quick test_churn_overlays_shrink_monotonically;
        Alcotest.test_case "churn stops early" `Quick test_churn_stops_when_overlay_too_small;
        Alcotest.test_case "churn pp" `Quick test_churn_pp_smoke;
      ] )
