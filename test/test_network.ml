(* Tests for the FIFO network and the perfect failure detector. *)

open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Latency = Cliffedge_net.Latency
module Network = Cliffedge_net.Network
module Stats = Cliffedge_net.Stats
module Fd = Cliffedge_detector.Failure_detector
module Substrate = Cliffedge_detector.Substrate

let n = Node_id.of_int

(* A crash record as a substrate owns it; the tests write it as the
   substrate's injection thunk does, with a stand-in event seq. *)
let record crashed p = Node_id.Tbl.replace crashed p 0

let make_net ?(latency = Latency.Uniform { min = 1.0; max = 10.0 }) ?(seed = 1)
    ?(crashed = Node_id.Tbl.create 1) () =
  let engine = Engine.create () in
  let net = Network.create ~crashed ~engine ~rng:(Prng.create seed) ~latency () in
  (engine, net)

let test_delivery () =
  let engine, net = make_net () in
  let got = ref [] in
  Network.on_deliver net (fun ~src ~dst payload ->
      got := (Node_id.to_int src, Node_id.to_int dst, payload) :: !got);
  Network.send net ~src:(n 1) ~dst:(n 2) "hello";
  Engine.run engine;
  Alcotest.(check (list (triple int int string))) "delivered" [ (1, 2, "hello") ] !got

let test_fifo_per_channel () =
  (* An adversarial latency model that would reorder without the FIFO
     floor: draws alternate between huge and tiny. *)
  let engine = Engine.create () in
  let net =
    Network.create ~crashed:(Node_id.Tbl.create 1) ~engine ~rng:(Prng.create 3)
      ~latency:(Latency.Uniform { min = 0.1; max = 50.0 })
      ()
  in
  let got = ref [] in
  Network.on_deliver net (fun ~src:_ ~dst:_ payload -> got := payload :: !got);
  for i = 1 to 50 do
    Network.send net ~src:(n 1) ~dst:(n 2) i
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1)) (List.rev !got)

let test_no_cross_channel_order () =
  (* FIFO is per ordered pair only: messages on different channels may
     interleave arbitrarily — just assert they all arrive. *)
  let engine, net = make_net ~seed:7 () in
  let count = ref 0 in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> incr count);
  for i = 1 to 10 do
    Network.send net ~src:(n 1) ~dst:(n 2) i;
    Network.send net ~src:(n 3) ~dst:(n 2) i
  done;
  Engine.run engine;
  Alcotest.(check int) "all arrive" 20 !count

let test_crashed_destination_drops () =
  let crashed = Node_id.Tbl.create 1 in
  let engine, net = make_net ~crashed () in
  let got = ref 0 in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> incr got);
  Network.send net ~src:(n 1) ~dst:(n 2) "in-flight";
  record crashed (n 2);
  Engine.run engine;
  Alcotest.(check int) "dropped at delivery" 0 !got;
  Alcotest.(check int) "counted as drop" 1 (Stats.dropped (Network.stats net))

let test_crashed_source_ignored () =
  let crashed = Node_id.Tbl.create 1 in
  let engine, net = make_net ~crashed () in
  let got = ref 0 in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> incr got);
  record crashed (n 1);
  Network.send net ~src:(n 1) ~dst:(n 2) "never";
  Engine.run engine;
  Alcotest.(check int) "not delivered" 0 !got;
  Alcotest.(check int) "not even sent" 0 (Stats.sent (Network.stats net))

let test_sent_before_crash_still_delivered () =
  (* Asynchronous model: messages already in flight from a node that
     subsequently crashes are delivered. *)
  let crashed = Node_id.Tbl.create 1 in
  let engine, net = make_net ~crashed () in
  let got = ref 0 in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> incr got);
  Network.send net ~src:(n 1) ~dst:(n 2) "flying";
  ignore (Engine.schedule engine ~delay:0.01 (fun () -> record crashed (n 1)));
  Engine.run engine;
  Alcotest.(check int) "delivered" 1 !got

(* The paper's best-effort multicast is a plain loop of point-to-point
   sends: each recipient gets one copy. *)
let test_multicast () =
  let engine, net = make_net () in
  let got = ref [] in
  Network.on_deliver net (fun ~src:_ ~dst _ -> got := Node_id.to_int dst :: !got);
  Node_set.iter
    (fun dst -> Network.send net ~src:(n 0) ~dst "m")
    (Node_set.of_ints [ 1; 2; 3 ]);
  Engine.run engine;
  Alcotest.(check (list int)) "all recipients" [ 1; 2; 3 ] (List.sort compare !got)

let test_units_accounting () =
  let engine, net = make_net () in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> ());
  Network.send net ~units:7 ~src:(n 1) ~dst:(n 2) "x";
  Network.send net ~src:(n 1) ~dst:(n 2) "y";
  Engine.run engine;
  Alcotest.(check int) "units" 8 (Stats.units_sent (Network.stats net))

(* ---------------- failure detector ---------------- *)

(* [crash p] injects a crash as the substrate's thunk does: into the
   crash record first, then into the detector. *)
let make_fd ?(latency = Latency.Constant 2.0) () =
  let engine = Engine.create () in
  let crashed = Node_id.Tbl.create 1 in
  let fd = Fd.create ~engine ~rng:(Prng.create 5) ~latency ~crashed () in
  let crash p =
    record crashed p;
    Fd.inject_crash fd p
  in
  (engine, fd, crash)

let test_fd_notifies_subscriber () =
  let engine, fd, crash = make_fd () in
  let got = ref [] in
  Fd.on_crash_notification fd (fun ~observer ~crashed ->
      got := (Node_id.to_int observer, Node_id.to_int crashed) :: !got);
  Fd.monitor fd ~observer:(n 1) ~targets:(Node_set.of_ints [ 2 ]);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> crash (n 2)));
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "notified" [ (1, 2) ] !got

let test_fd_strong_accuracy () =
  (* No crash, no notification; unsubscribed observers hear nothing. *)
  let engine, fd, crash = make_fd () in
  let got = ref 0 in
  Fd.on_crash_notification fd (fun ~observer:_ ~crashed:_ -> incr got);
  Fd.monitor fd ~observer:(n 1) ~targets:(Node_set.of_ints [ 2 ]);
  ignore (Engine.schedule engine ~delay:1.0 (fun () -> crash (n 3)));
  Engine.run engine;
  Alcotest.(check int) "no spurious notification" 0 !got

let test_fd_late_subscription () =
  (* Strong completeness also for subscriptions after the crash. *)
  let engine, fd, crash = make_fd () in
  let got = ref [] in
  Fd.on_crash_notification fd (fun ~observer ~crashed ->
      got := (Node_id.to_int observer, Node_id.to_int crashed) :: !got);
  crash (n 9);
  Fd.monitor fd ~observer:(n 1) ~targets:(Node_set.of_ints [ 9 ]);
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "late notified" [ (1, 9) ] !got

(* A repeated subscription is notified once.  A node cannot crash twice:
   the substrate rejects such a schedule (test_runner's "crash named
   twice"). *)
let test_fd_no_duplicate () =
  let engine, fd, crash = make_fd () in
  let got = ref 0 in
  Fd.on_crash_notification fd (fun ~observer:_ ~crashed:_ -> incr got);
  Fd.monitor fd ~observer:(n 1) ~targets:(Node_set.of_ints [ 2 ]);
  Fd.monitor fd ~observer:(n 1) ~targets:(Node_set.of_ints [ 2 ]);
  crash (n 2);
  Engine.run engine;
  Alcotest.(check int) "once" 1 !got

let test_fd_dead_observer_not_notified () =
  let engine, fd, crash = make_fd () in
  let got = ref 0 in
  Fd.on_crash_notification fd (fun ~observer:_ ~crashed:_ -> incr got);
  Fd.monitor fd ~observer:(n 1) ~targets:(Node_set.of_ints [ 2 ]);
  crash (n 1);
  crash (n 2);
  Engine.run engine;
  Alcotest.(check int) "dead observers stay silent" 0 !got

let test_fd_self_subscription_ignored () =
  let engine, fd, crash = make_fd () in
  let got = ref 0 in
  Fd.on_crash_notification fd (fun ~observer:_ ~crashed:_ -> incr got);
  Fd.monitor fd ~observer:(n 1) ~targets:(Node_set.of_ints [ 1 ]);
  crash (n 1);
  Engine.run engine;
  Alcotest.(check int) "no self notification" 0 !got

(* A crash takes effect at its injection time, not before: the
   substrate's crash record, which the detector reads, gains the node
   then, with the seq of its [Crash] event. *)
let test_fd_crash_time () =
  let latency = Latency.Constant 2.0 in
  let sub =
    Substrate.create ~seed:5 ~message_latency:latency ~detection_latency:latency
      ~channel_consistent_fd:true ()
  in
  Substrate.schedule_crashes sub [ (4.0, n 2) ];
  let before = ref true in
  ignore
    (Engine.schedule sub.engine ~delay:3.0 (fun () ->
         before := Substrate.is_crashed sub (n 2)));
  Substrate.run ~max_events:100 sub;
  Alcotest.(check bool) "alive before its crash time" false !before;
  Alcotest.(check bool) "alive" false (Substrate.is_crashed sub (n 1));
  Alcotest.(check bool) "is_crashed" true (Substrate.is_crashed sub (n 2));
  Alcotest.(check (list int)) "crashed set" [ 2 ]
    (Node_set.to_ints (Substrate.crashed_nodes sub));
  Alcotest.(check (option int)) "Crash event seq" (Some 0)
    (Node_id.Tbl.find_opt sub.crashed (n 2))

let suite =
  ( "network/detector",
    [
      Alcotest.test_case "delivery" `Quick test_delivery;
      Alcotest.test_case "fifo per channel" `Quick test_fifo_per_channel;
      Alcotest.test_case "cross-channel" `Quick test_no_cross_channel_order;
      Alcotest.test_case "crashed dst drops" `Quick test_crashed_destination_drops;
      Alcotest.test_case "crashed src ignored" `Quick test_crashed_source_ignored;
      Alcotest.test_case "in-flight survives src crash" `Quick
        test_sent_before_crash_still_delivered;
      Alcotest.test_case "multicast" `Quick test_multicast;
      Alcotest.test_case "units accounting" `Quick test_units_accounting;
      Alcotest.test_case "fd notifies" `Quick test_fd_notifies_subscriber;
      Alcotest.test_case "fd strong accuracy" `Quick test_fd_strong_accuracy;
      Alcotest.test_case "fd late subscription" `Quick test_fd_late_subscription;
      Alcotest.test_case "fd no duplicate" `Quick test_fd_no_duplicate;
      Alcotest.test_case "fd dead observer" `Quick test_fd_dead_observer_not_notified;
      Alcotest.test_case "fd self subscription" `Quick test_fd_self_subscription_ignored;
      Alcotest.test_case "fd crash time" `Quick test_fd_crash_time;
    ] )

let test_flush_time_tracks_last_delivery () =
  let engine, net = make_net ~latency:(Latency.Constant 5.0) () in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> ());
  Alcotest.(check bool) "no traffic yet" true
    (Network.flush_time net ~src:(n 1) ~dst:(n 2) = neg_infinity);
  Network.send net ~src:(n 1) ~dst:(n 2) "a";
  Network.send net ~src:(n 1) ~dst:(n 2) "b";
  let flush = Network.flush_time net ~src:(n 1) ~dst:(n 2) in
  Alcotest.(check bool) "covers both sends" true (flush >= 5.0);
  Engine.run engine;
  Alcotest.(check bool) "delivery completed by flush time" true
    (Engine.now engine <= flush +. 1e-6);
  (* Independent per ordered pair. *)
  Alcotest.(check bool) "reverse channel untouched" true
    (Network.flush_time net ~src:(n 2) ~dst:(n 1) = neg_infinity)

let test_flush_time_crashed_nodes () =
  (* Crashing an endpoint neither rewinds nor advances the floor: a
     crashed sender's later sends are ignored, and messages already
     scheduled towards a crashed destination keep their slot (they are
     dropped at delivery time, not unscheduled). *)
  let crashed = Node_id.Tbl.create 1 in
  let engine, net = make_net ~latency:(Latency.Constant 5.0) ~crashed () in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> ());
  Network.send net ~src:(n 1) ~dst:(n 2) "a";
  let flush = Network.flush_time net ~src:(n 1) ~dst:(n 2) in
  record crashed (n 1);
  Network.send net ~src:(n 1) ~dst:(n 2) "ignored";
  Alcotest.(check (float 1e-9)) "crashed src cannot extend the floor" flush
    (Network.flush_time net ~src:(n 1) ~dst:(n 2));
  record crashed (n 2);
  Alcotest.(check (float 1e-9)) "crash of dst keeps scheduled slot" flush
    (Network.flush_time net ~src:(n 1) ~dst:(n 2));
  Engine.run engine;
  Alcotest.(check bool) "still no flush on untouched channel" true
    (Network.flush_time net ~src:(n 3) ~dst:(n 4) = neg_infinity)

let test_flush_time_monotone_interleaved () =
  (* The floor never decreases, however adversarial the latency draws,
     and interleaved traffic on other channels does not perturb it. *)
  let engine = Engine.create () in
  let net =
    Network.create ~crashed:(Node_id.Tbl.create 1) ~engine ~rng:(Prng.create 11)
      ~latency:(Latency.Uniform { min = 0.1; max = 50.0 })
      ()
  in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> ());
  let last = ref neg_infinity in
  for i = 1 to 40 do
    Network.send net ~src:(n 1) ~dst:(n 2) i;
    Network.send net ~src:(n 2) ~dst:(n 1) i;
    Network.send net ~src:(n 3) ~dst:(n 2) i;
    let flush = Network.flush_time net ~src:(n 1) ~dst:(n 2) in
    Alcotest.(check bool) "monotone" true (flush >= !last);
    last := flush
  done;
  Engine.run engine

(* ---------------- raw fault injection ---------------- *)

let plan spec =
  match Cliffedge_net.Faults.of_string spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "fault spec %S rejected: %s" spec e

let make_faulty_net ?(latency = Latency.Constant 5.0) ?(seed = 1) spec =
  let engine = Engine.create () in
  let net =
    Network.create ~faults:(plan spec) ~crashed:(Node_id.Tbl.create 1) ~engine
      ~rng:(Prng.create seed) ~latency ()
  in
  (engine, net)

let test_faults_drop_all () =
  let engine, net = make_faulty_net "drop:1" in
  let got = ref 0 in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> incr got);
  for i = 1 to 5 do
    Network.send net ~src:(n 1) ~dst:(n 2) i
  done;
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "all counted as fault drops" 5
    (Stats.fault_dropped (Network.stats net));
  Alcotest.(check int) "sent still counted" 5 (Stats.sent (Network.stats net));
  (* Lost messages never schedule, so they cannot hold up the FD floor. *)
  Alcotest.(check bool) "no flush floor" true
    (Network.flush_time net ~src:(n 1) ~dst:(n 2) = neg_infinity)

let test_faults_dup_all () =
  let engine, net = make_faulty_net "dup:1" in
  let got = ref 0 in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> incr got);
  for i = 1 to 5 do
    Network.send net ~src:(n 1) ~dst:(n 2) i
  done;
  Engine.run engine;
  Alcotest.(check int) "every message twice" 10 !got;
  Alcotest.(check int) "duplicates counted" 5 (Stats.duplicated (Network.stats net))

let test_faults_reorder_bound () =
  (* reorder:K lets a message overtake at most K predecessors: in the
     delivered sequence, message i always lands after message i-K-1. *)
  let k = 2 in
  let engine, net =
    make_faulty_net ~latency:(Latency.Uniform { min = 0.1; max = 50.0 }) ~seed:3
      (Printf.sprintf "reorder:%d" k)
  in
  let got = ref [] in
  Network.on_deliver net (fun ~src:_ ~dst:_ i -> got := i :: !got);
  let count = 50 in
  for i = 0 to count - 1 do
    Network.send net ~src:(n 1) ~dst:(n 2) i
  done;
  Engine.run engine;
  let order = List.rev !got in
  Alcotest.(check int) "all delivered" count (List.length order);
  let position = Array.make count 0 in
  List.iteri (fun pos i -> position.(i) <- pos) order;
  for i = k + 1 to count - 1 do
    if position.(i) < position.(i - k - 1) then
      Alcotest.failf "message %d overtook %d predecessors" i (k + 1)
  done;
  (* The bound is not vacuous: this seed really does reorder. *)
  Alcotest.(check bool) "some reordering happened" true
    (order <> List.init count Fun.id)

let test_faults_cut_window () =
  (* cut:T1-T2:A-B severs both directions during [T1, T2) only. *)
  let engine, net = make_faulty_net "cut:0-10:1-2" in
  let got = ref 0 in
  Network.on_deliver net (fun ~src:_ ~dst:_ _ -> incr got);
  Network.send net ~src:(n 1) ~dst:(n 2) "lost";
  Network.send net ~src:(n 2) ~dst:(n 1) "lost too";
  Network.send net ~src:(n 1) ~dst:(n 3) "other pair, unaffected";
  ignore
    (Engine.schedule engine ~delay:15.0 (fun () ->
         Network.send net ~src:(n 1) ~dst:(n 2) "after the window"));
  Engine.run engine;
  Alcotest.(check int) "cut drops both directions, window ends" 2 !got;
  Alcotest.(check int) "cut losses counted" 2 (Stats.fault_dropped (Network.stats net))

let test_pass_through_plan_is_reliable () =
  (* A no-op plan must take the reliable code path: same PRNG draws,
     same delivery schedule, bit-identical stats. *)
  let run net_of =
    let engine = Engine.create () in
    let net = net_of engine in
    let got = ref [] in
    Network.on_deliver net (fun ~src:_ ~dst:_ i ->
        got := (Engine.now engine, i) :: !got);
    for i = 1 to 20 do
      Network.send net ~src:(n 1) ~dst:(n 2) i
    done;
    Engine.run engine;
    List.rev !got
  in
  let latency = Latency.Uniform { min = 1.0; max = 10.0 } in
  let reliable =
    run (fun engine ->
        Network.create ~crashed:(Node_id.Tbl.create 1) ~engine ~rng:(Prng.create 9)
          ~latency ())
  in
  let pass_through =
    run (fun engine ->
        Network.create ~faults:(plan "none") ~crashed:(Node_id.Tbl.create 1) ~engine
          ~rng:(Prng.create 9) ~latency ())
  in
  Alcotest.(check (list (pair (float 1e-9) int))) "identical schedules" reliable
    pass_through

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "flush_time" `Quick test_flush_time_tracks_last_delivery;
        Alcotest.test_case "flush_time crashed endpoints" `Quick
          test_flush_time_crashed_nodes;
        Alcotest.test_case "flush_time monotone" `Quick
          test_flush_time_monotone_interleaved;
        Alcotest.test_case "faults drop" `Quick test_faults_drop_all;
        Alcotest.test_case "faults dup" `Quick test_faults_dup_all;
        Alcotest.test_case "faults reorder bound" `Quick test_faults_reorder_bound;
        Alcotest.test_case "faults cut window" `Quick test_faults_cut_window;
        Alcotest.test_case "pass-through plan" `Quick test_pass_through_plan_is_reliable;
      ] )
