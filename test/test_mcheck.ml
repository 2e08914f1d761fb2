(* Tests for the exhaustive small-scope model checker.

   Unlike the seeded simulator runs, these explore EVERY schedule of
   their configurations, so "0 violations" here is a small-scope proof,
   not a sample. *)

open Cliffedge_graph
module Explorer = Cliffedge_mcheck.Explorer
module Checker = Cliffedge.Checker

let n = Node_id.of_int

let test_single_node_region_exhaustive () =
  let stats = Explorer.explore ~graph:(Topology.path 3) ~crashes:[ n 1 ] () in
  Alcotest.(check bool) "ok" true (Explorer.ok stats);
  Alcotest.(check bool) "explored something" true (stats.states_explored >= 5);
  Alcotest.(check bool) "reached quiescence" true (stats.leaves >= 1)

let test_star_hub_exhaustive () =
  (* Three-node border, two base rounds: every schedule decides
     uniformly.  Pin the base mode explicitly — early stopping (the
     default) is exercised by the next case. *)
  let stats =
    Explorer.explore ~early_stopping:false ~graph:(Topology.star 4)
      ~crashes:[ n 0 ] ()
  in
  Alcotest.(check bool) "ok" true (Explorer.ok stats);
  Alcotest.(check bool) "non-trivial space" true (stats.states_explored > 100)

let test_star_hub_early_stopping_exhaustive () =
  (* The early-termination mode is our own crash-safe extension of the
     paper's footnote 6: verify it against ALL schedules, not samples. *)
  let stats =
    Explorer.explore ~early_stopping:true ~graph:(Topology.star 4) ~crashes:[ n 0 ] ()
  in
  Alcotest.(check bool) "ok" true (Explorer.ok stats)

let test_growing_region_exhaustive () =
  (* Region {2,3} with a later cascade crash of border node 1: the
     configuration that exhibits the CD5 anomaly under the raw detector
     (see below) is clean under the channel-consistent one — over every
     schedule. *)
  let graph = Topology.path 5 in
  let stats = Explorer.explore ~graph ~crashes:[ n 2; n 3; n 1 ] () in
  Alcotest.(check bool) "ok" true (Explorer.ok stats);
  Alcotest.(check bool) "many interleavings" true (stats.states_explored > 200)

let test_raw_fd_anomaly_exhaustive () =
  let graph = Topology.path 5 in
  let stats = Explorer.explore ~fd:`Raw ~graph ~crashes:[ n 2; n 3; n 1 ] () in
  Alcotest.(check bool) "violations found" true (stats.violations <> []);
  List.iter
    (fun (v : Explorer.violation) ->
      Alcotest.(check bool) "all are CD5" true
        (v.property = Checker.CD5_uniform_border_agreement);
      Alcotest.(check bool) "has a trace" true (v.trace <> []))
    stats.violations

let test_raw_fd_two_crash_counterexample () =
  (* The minimal anomaly needs only two crashes: the region {2} is
     decided by node 3, node 3 crashes, and node 1 — excused too early —
     re-proposes the grown region {2,3}. *)
  let graph = Topology.path 5 in
  let stats = Explorer.explore ~fd:`Raw ~graph ~crashes:[ n 2; n 3 ] () in
  Alcotest.(check bool) "violations found" true (stats.violations <> [])

let test_arbitration_exhaustive () =
  (* Two disjoint singleton regions {1} and {3} on a 5-ring share border
     node 2: ranking arbitration across all schedules stays safe. *)
  let stats = Explorer.explore ~graph:(Topology.ring 5) ~crashes:[ n 1; n 3 ] () in
  Alcotest.(check bool) "ok" true (Explorer.ok stats)

let test_adjacent_domains_exhaustive () =
  (* The Fig. 2 shape at its smallest: domains {1} and {3} on a path,
     sharing border node 2.  Progress and safety over every schedule. *)
  let stats = Explorer.explore ~graph:(Topology.path 5) ~crashes:[ n 1; n 3 ] () in
  Alcotest.(check bool) "ok" true (Explorer.ok stats)

let test_truncation_reported () =
  let stats =
    Explorer.explore ~max_states:5 ~graph:(Topology.star 4) ~crashes:[ n 0 ] ()
  in
  Alcotest.(check bool) "truncated" true stats.truncated;
  Alcotest.(check bool) "not ok" false (Explorer.ok stats)

let test_deterministic () =
  let run () = Explorer.explore ~graph:(Topology.path 4) ~crashes:[ n 1; n 2 ] () in
  let a = run () and b = run () in
  Alcotest.(check int) "states" a.states_explored b.states_explored;
  Alcotest.(check int) "transitions" a.transitions b.transitions;
  Alcotest.(check int) "leaves" a.leaves b.leaves

let test_star5_hub_pinned () =
  (* Thirty times X10's largest row: a fingerprint collision would merge
     two states and move these counts.  Of its 144 545 node steps (the
     Init steps, deliveries and notifications), the transition cache
     answers all but 2 530. *)
  let stats = Explorer.explore ~graph:(Topology.star 5) ~crashes:[ n 0 ] () in
  Alcotest.(check int) "states" 26_997 stats.states_explored;
  Alcotest.(check int) "transitions" 144_541 stats.transitions;
  Alcotest.(check int) "leaves" 5 stats.leaves;
  Alcotest.(check int) "handle calls" 2_530 stats.handle_calls;
  Alcotest.(check bool) "ok" true (Explorer.ok stats)

(* Worlds large enough that a move which left the world's hash sum
   stale, or an item hash that two distinct items share, would merge
   or split states and move these counts. *)
let check_counts (states, transitions, leaves, violations, truncated) stats =
  Alcotest.(check int) "states" states stats.Explorer.states_explored;
  Alcotest.(check int) "transitions" transitions stats.transitions;
  Alcotest.(check int) "leaves" leaves stats.leaves;
  Alcotest.(check int) "violations" violations (List.length stats.violations);
  Alcotest.(check bool) "truncated" truncated stats.truncated

(* X10's two cascades, the mcheck-small benchmark's op: 696 and 547
   node steps, of which the transition cache leaves 148 and 76 to
   [Protocol.handle].  A cache that stopped hitting would move the last
   count. *)
let test_ring6_cascade_pinned () =
  let stats = Explorer.explore ~graph:(Topology.ring 6) ~crashes:[ n 2; n 3; n 4 ] () in
  check_counts (414, 752, 22, 0, false) stats;
  Alcotest.(check int) "handle calls" 148 stats.handle_calls

let test_path5_cascade_pinned () =
  let stats = Explorer.explore ~graph:(Topology.path 5) ~crashes:[ n 2; n 3; n 1 ] () in
  check_counts (341, 604, 13, 0, false) stats;
  Alcotest.(check int) "handle calls" 76 stats.handle_calls

let test_star6_hub_bounded_pinned () =
  check_counts (50_000, 366_269, 1, 0, true)
    (Explorer.explore ~max_states:50_000 ~graph:(Topology.star 6) ~crashes:[ n 0 ] ())

let test_torus3x3_bounded_pinned () =
  check_counts (100_000, 662_069, 2, 0, true)
    (Explorer.explore ~max_states:100_000 ~graph:(Topology.torus 3 3)
       ~crashes:[ n 4; n 5 ] ())

let test_star4_lossy_pinned () =
  (* The Drop and Dup moves. *)
  check_counts (12_572, 51_211, 28, 0, false)
    (Explorer.explore
       ~channel:(`Lossy { Explorer.max_drops = 1; max_dups = 1 })
       ~graph:(Topology.star 4) ~crashes:[ n 0 ] ())

let test_no_crashes_trivial () =
  let stats = Explorer.explore ~graph:(Topology.path 3) ~crashes:[] () in
  Alcotest.(check bool) "ok" true (Explorer.ok stats);
  Alcotest.(check int) "single quiet state" 1 stats.states_explored

let suite =
  ( "model checker",
    [
      Alcotest.test_case "single region exhaustive" `Quick
        test_single_node_region_exhaustive;
      Alcotest.test_case "star hub exhaustive" `Quick test_star_hub_exhaustive;
      Alcotest.test_case "early stopping exhaustive" `Quick
        test_star_hub_early_stopping_exhaustive;
      Alcotest.test_case "growing region exhaustive" `Quick
        test_growing_region_exhaustive;
      Alcotest.test_case "raw FD anomaly exhaustive" `Quick
        test_raw_fd_anomaly_exhaustive;
      Alcotest.test_case "raw FD 2-crash counterexample" `Quick
        test_raw_fd_two_crash_counterexample;
      Alcotest.test_case "arbitration exhaustive" `Quick test_arbitration_exhaustive;
      Alcotest.test_case "adjacent domains exhaustive" `Quick
        test_adjacent_domains_exhaustive;
      Alcotest.test_case "truncation reported" `Quick test_truncation_reported;
      Alcotest.test_case "deterministic" `Quick test_deterministic;
      Alcotest.test_case "star5 hub pinned" `Quick test_star5_hub_pinned;
      Alcotest.test_case "ring6 cascade pinned" `Quick test_ring6_cascade_pinned;
      Alcotest.test_case "path5 cascade pinned" `Quick test_path5_cascade_pinned;
      Alcotest.test_case "star6 hub bounded pinned" `Quick test_star6_hub_bounded_pinned;
      Alcotest.test_case "torus3x3 bounded pinned" `Quick test_torus3x3_bounded_pinned;
      Alcotest.test_case "star4 lossy pinned" `Quick test_star4_lossy_pinned;
      Alcotest.test_case "no crashes" `Quick test_no_crashes_trivial;
    ] )

(* ------------------ Monte-Carlo sampling mode ------------------ *)

let test_sampling_clean_on_big_config () =
  (* A configuration with a big state graph: sample instead of exhaust. *)
  let graph = Topology.ring 10 in
  let stats =
    Explorer.explore
      ~mode:(Explorer.Sample { walks = 150; seed = 7 })
      ~graph
      ~crashes:[ n 3; n 4; n 5; n 2 ]
      ()
  in
  Alcotest.(check int) "150 walk endpoints" 150 stats.leaves;
  Alcotest.(check bool) "no violations" true (stats.violations = []);
  Alcotest.(check bool) "covered many states" true (stats.states_explored > 500)

let test_sampling_finds_raw_anomaly () =
  let graph = Topology.path 5 in
  let stats =
    Explorer.explore ~fd:`Raw
      ~mode:(Explorer.Sample { walks = 400; seed = 3 })
      ~graph ~crashes:[ n 2; n 3 ] ()
  in
  Alcotest.(check bool) "sampler finds the CD5 anomaly" true (stats.violations <> [])

let test_sampling_deterministic () =
  let run () =
    Explorer.explore
      ~mode:(Explorer.Sample { walks = 50; seed = 11 })
      ~graph:(Topology.ring 6)
      ~crashes:[ n 2; n 3 ]
      ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "states" a.states_explored b.states_explored;
  Alcotest.(check int) "transitions" a.transitions b.transitions

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "sampling clean" `Quick test_sampling_clean_on_big_config;
        Alcotest.test_case "sampling finds anomaly" `Quick
          test_sampling_finds_raw_anomaly;
        Alcotest.test_case "sampling deterministic" `Quick test_sampling_deterministic;
      ] )
