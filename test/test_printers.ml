(* Smoke tests for the pretty-printers: they must render non-trivially
   and never raise, whatever the value.  (Printers are the first thing a
   debugging user reaches for; a raising printer is worse than none.) *)

open Cliffedge_graph

let render pp v = Format.asprintf "%a" pp v

let nonempty name s = Alcotest.(check bool) name true (String.length s > 3)

let test_graph_printers () =
  let g = Topology.grid 3 3 in
  nonempty "Ranking.pp_rank" (render (Ranking.pp_rank g) (Node_set.of_ints [ 4 ]));
  nonempty "Fault_geometry.pp"
    (render Fault_geometry.pp (Fault_geometry.compute g ~faulty:(Node_set.of_ints [ 4 ])));
  nonempty "Topology.pp_spec" (render Topology.pp_spec (Topology.Grid (3, 3)))

let test_empty_graph_printers () =
  nonempty "empty graph" (Dot.to_string Graph.empty);
  Alcotest.(check string) "empty set" "{}" (Node_set.to_string Node_set.empty)

let test_protocol_printers () =
  let module Protocol = Cliffedge.Protocol in
  let g = Topology.path 4 in
  let cfg =
    Protocol.config ~graph:g ~propose_value:(fun _ _ -> "v") ()
  in
  let st0 = Protocol.init ~self:(Node_id.of_int 1) in
  let st, _ = Protocol.handle cfg st0 Protocol.Init in
  let st, _ = Protocol.handle cfg st (Protocol.Crash (Node_id.of_int 2)) in
  nonempty "Protocol.pp_state" (render (Protocol.pp_state Format.pp_print_string) st);
  Alcotest.(check bool) "fingerprint" false
    (Int.equal (Protocol.fingerprint Hashtbl.hash st0) (Protocol.fingerprint Hashtbl.hash st))

let test_runner_printers () =
  let module Runner = Cliffedge.Runner in
  let g = Topology.ring 8 in
  let outcome =
    Runner.run ~graph:g
      ~crashes:[ (5.0, Node_id.of_int 3) ]
      ~propose_value:Cliffedge.Scenario.default_propose ()
  in
  nonempty "Runner.pp_outcome"
    (render (Runner.pp_outcome Format.pp_print_string) outcome);
  nonempty "Checker.pp_report"
    (render Cliffedge.Checker.pp_report (Cliffedge.Checker.check outcome))

let test_mcheck_printer () =
  let module E = Cliffedge_mcheck.Explorer in
  let stats =
    E.explore ~graph:(Topology.path 3) ~crashes:[ Node_id.of_int 1 ] ()
  in
  nonempty "Explorer.pp_stats" (render E.pp_stats stats)

let suite =
  ( "printers",
    [
      Alcotest.test_case "graph family" `Quick test_graph_printers;
      Alcotest.test_case "degenerate values" `Quick test_empty_graph_printers;
      Alcotest.test_case "protocol" `Quick test_protocol_printers;
      Alcotest.test_case "runner/checker" `Quick test_runner_printers;
      Alcotest.test_case "model checker" `Quick test_mcheck_printer;
    ] )
