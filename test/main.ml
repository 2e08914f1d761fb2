(* Aggregated alcotest entry point for the whole repository. *)

let () =
  Alcotest.run "cliffedge"
    [
      Test_prng.suite;
      Test_engine.suite;
      Test_trace_report.suite;
      Test_node_modules.suite;
      Test_node_set_bitset.suite;
      Test_graph.suite;
      Test_ranking.suite;
      Test_topology.suite;
      Test_fault_geometry.suite;
      Test_implicit.suite;
      Test_latency_stats.suite;
      Test_network.suite;
      Test_opinion.suite;
      Test_protocol.suite;
      Test_runner.suite;
      Test_checker.suite;
      Test_scenarios.suite;
      Test_baseline.suite;
      Test_fault_gen.suite;
      Test_stable_predicate.suite;
      Test_fd_anomaly.suite;
      Test_mcheck.suite;
      Test_codec.suite;
      Test_repair.suite;
      Test_timeline_csv.suite;
      Test_membership.suite;
      Test_protocol_invariants.suite;
      Test_printers.suite;
      Test_properties.suite;
      Test_transport.suite;
      Test_obs.suite;
      Test_lint_fixpoint.suite;
      Test_alloc_certifier.suite;
      Test_differential.suite;
    ]
