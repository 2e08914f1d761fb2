(* Regression tests for the uniformity finding (DESIGN.md §7).

   The paper's Algorithm 1 with |B|-1 rounds relies on crash
   notifications never overtaking the crashed node's in-flight messages.
   With a raw perfect failure detector that ordering can be violated:
   a node p completes the single round of a two-node border, decides,
   and crashes; its peer q is excused of p before p's accept arrives,
   aborts, and later decides the grown region — breaking CD5 (uniform
   border agreement).  Our channel-consistent detector (the default)
   restores the ordering the proof needs. *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module Fault_gen = Cliffedge_workload.Fault_gen
module Latency = Cliffedge_net.Latency
module Prng = Cliffedge_prng.Prng

let graph = Topology.ring 64

let adversarial_options ~channel_consistent_fd seed =
  {
    Runner.default_options with
    seed;
    channel_consistent_fd;
    message_latency = Latency.Exponential { min = 0.5; mean = 10.0 };
    detection_latency = Latency.Constant 1.0;
  }

let run_cascades ~channel_consistent_fd =
  List.map
    (fun seed ->
      let rng = Prng.create (77 + seed) in
      let seed_region =
        Fault_gen.connected_region_from rng graph ~seed_node:(Node_id.of_int 30)
          ~size:2
      in
      let crashes, _ =
        Fault_gen.cascade rng graph ~seed_region ~depth:3 ~start:10.0 ~interval:25.0
      in
      let outcome =
        Runner.run
          ~options:(adversarial_options ~channel_consistent_fd seed)
          ~graph ~crashes ~propose_value:Scenario.default_propose ()
      in
      Checker.check ~value_equal:String.equal outcome)
    (List.init 40 Fun.id)

let test_raw_fd_reproduces_anomaly () =
  let reports = run_cascades ~channel_consistent_fd:false in
  let cd5 =
    List.concat_map
      (fun r ->
        List.filter
          (fun v -> v.Checker.property = Checker.CD5_uniform_border_agreement)
          r.Checker.violations)
      reports
  in
  Alcotest.(check bool)
    "raw detector exhibits the CD5 anomaly on at least one seed" true (cd5 <> [])

let test_consistent_fd_closes_anomaly () =
  let reports = run_cascades ~channel_consistent_fd:true in
  List.iter
    (fun r ->
      if not (Checker.ok r) then
        Alcotest.failf "violation with channel-consistent FD: %s"
          (Format.asprintf "%a" Checker.pp_report r))
    reports

let test_notification_respects_flush_floor () =
  (* Direct substrate check: with a huge message latency and instant
     detection, the channel-consistent notification still arrives after
     the in-flight message. *)
  let module Engine = Cliffedge_sim.Engine in
  let module Network = Cliffedge_net.Network in
  let module Fd = Cliffedge_detector.Failure_detector in
  let engine = Engine.create () in
  let rng = Prng.create 3 in
  let crashed = Node_id.Tbl.create 1 in
  let network =
    Network.create ~crashed ~engine ~rng ~latency:(Latency.Constant 100.0) ()
  in
  let fd =
    Fd.create ~engine ~rng ~latency:(Latency.Constant 0.1) ~crashed
      ~channel_floor:(fun ~observer ~crashed ->
        Network.flush_time network ~src:crashed ~dst:observer)
      ()
  in
  let events = ref [] in
  Network.on_deliver network (fun ~src:_ ~dst:_ payload ->
      events := (`Msg payload, Engine.now engine) :: !events);
  Fd.on_crash_notification fd (fun ~observer:_ ~crashed:_ ->
      events := (`Crash, Engine.now engine) :: !events);
  let a = Node_id.of_int 1 and b = Node_id.of_int 2 in
  Fd.monitor fd ~observer:b ~targets:(Node_set.singleton a);
  Network.send network ~src:a ~dst:b "in-flight";
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         Node_id.Tbl.replace crashed a 0;
         Fd.inject_crash fd a));
  Engine.run engine;
  match List.rev !events with
  | [ (`Msg "in-flight", t1); (`Crash, t2) ] ->
      Alcotest.(check bool) "message before notification" true (t1 < t2)
  | _ -> Alcotest.fail "expected message then crash notification"

let test_raw_notification_can_overtake () =
  (* Same setup without the floor: the notification overtakes. *)
  let module Engine = Cliffedge_sim.Engine in
  let module Network = Cliffedge_net.Network in
  let module Fd = Cliffedge_detector.Failure_detector in
  let engine = Engine.create () in
  let rng = Prng.create 3 in
  let crashed = Node_id.Tbl.create 1 in
  let network =
    Network.create ~crashed ~engine ~rng ~latency:(Latency.Constant 100.0) ()
  in
  let fd = Fd.create ~engine ~rng ~latency:(Latency.Constant 0.1) ~crashed () in
  let order = ref [] in
  Network.on_deliver network (fun ~src:_ ~dst:_ _ -> order := `Msg :: !order);
  Fd.on_crash_notification fd (fun ~observer:_ ~crashed:_ -> order := `Crash :: !order);
  let a = Node_id.of_int 1 and b = Node_id.of_int 2 in
  Fd.monitor fd ~observer:b ~targets:(Node_set.singleton a);
  Network.send network ~src:a ~dst:b "in-flight";
  ignore
    (Engine.schedule engine ~delay:1.0 (fun () ->
         Node_id.Tbl.replace crashed a 0;
         Fd.inject_crash fd a));
  Engine.run engine;
  Alcotest.(check bool) "notification first" true (List.rev !order = [ `Crash; `Msg ])

let suite =
  ( "fd anomaly (paper finding)",
    [
      Alcotest.test_case "raw FD reproduces CD5 anomaly" `Quick
        test_raw_fd_reproduces_anomaly;
      Alcotest.test_case "channel-consistent FD closes it" `Quick
        test_consistent_fd_closes_anomaly;
      Alcotest.test_case "flush floor ordering" `Quick
        test_notification_respects_flush_floor;
      Alcotest.test_case "raw FD can overtake" `Quick test_raw_notification_can_overtake;
    ] )

(* ------------------------------------------------------------------ *)
(* Assumption ablation (X13): false suspicions break the spec          *)

let test_false_suspicion_breaks_locality () =
  (* One false suspicion between correct nodes far from any real fault:
     the victim proposes a phantom region and its messages violate
     CD3. *)
  let graph = Topology.ring 32 in
  let region = Node_set.of_ints [ 10; 11 ] in
  let crashes = List.map (fun p -> (10.0, p)) (Node_set.elements region) in
  let options =
    {
      Runner.default_options with
      false_suspicions = [ (20.0, Node_id.of_int 0, Node_id.of_int 1) ];
    }
  in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  let report = Checker.check ~value_equal:String.equal outcome in
  Alcotest.(check bool) "CD3 violated" true
    (List.exists
       (fun v -> v.Checker.property = Checker.CD3_locality)
       report.Checker.violations)

let test_suspicion_of_actually_crashed_is_noop () =
  (* Suspecting a node that really crashed adds nothing: run stays
     clean. *)
  let graph = Topology.ring 32 in
  let region = Node_set.of_ints [ 10; 11 ] in
  let crashes = List.map (fun p -> (10.0, p)) (Node_set.elements region) in
  let options =
    {
      Runner.default_options with
      false_suspicions = [ (50.0, Node_id.of_int 9, Node_id.of_int 10) ];
    }
  in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  Alcotest.(check bool) "still clean" true
    (Checker.ok (Checker.check ~value_equal:String.equal outcome))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "false suspicion breaks CD3" `Quick
          test_false_suspicion_breaks_locality;
        Alcotest.test_case "true suspicion is no-op" `Quick
          test_suspicion_of_actually_crashed_is_noop;
      ] )
