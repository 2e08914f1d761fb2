(* ARQ transport validation (experiment X16's correctness side).

   The paper assumes reliable FIFO channels; lib/net/transport.ml
   re-earns them over an adversarial fault plan.  Three layers of
   evidence here:

   - a qcheck property that the ARQ delivers exactly-once, in order,
     per ordered pair, over randomized fault plans (loss up to 50%,
     duplication, bounded reordering, finite link cuts);
   - an end-to-end qcheck that CD1-CD7 hold on whole-system runs over
     [Arq_over_faulty] with loss up to 30%;
   - a regression pair in the style of test_fd_anomaly.ml: the same
     lossy wire *without* the transport (and with a raw detector)
     visibly breaks the spec, so it is the ARQ, not luck, that upholds
     it. *)

open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Latency = Cliffedge_net.Latency
module Network = Cliffedge_net.Network
module Faults = Cliffedge_net.Faults
module Transport = Cliffedge_net.Transport
module Stats = Cliffedge_net.Stats
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module Fault_gen = Cliffedge_workload.Fault_gen
module Obs = Cliffedge_obs

let n = Node_id.of_int

(* ------------------------------------------------------------------ *)
(* Exactly-once FIFO over adversarial plans                            *)

let node_count = 4

(* A random plan drawn from the property seed: loss up to 50%,
   duplication, a reordering window, and up to two *finite* cuts
   (permanent cuts legitimately stall; they get their own test). *)
let random_plan rng =
  let cuts =
    List.init (Prng.int rng 3) (fun _ ->
        let from_time = Prng.float rng 100.0 in
        let a = Prng.int rng node_count in
        let b = (a + 1 + Prng.int rng (node_count - 1)) mod node_count in
        {
          Faults.from_time;
          until_time = from_time +. 1.0 +. Prng.float rng 60.0;
          a = n a;
          b = n b;
        })
  in
  {
    Faults.drop = Prng.float rng 0.5;
    dup = Prng.float rng 0.3;
    reorder = Prng.int rng 5;
    cuts;
  }

let messages_per_pair = 20

let check_exactly_once_fifo seed =
  let rng = Prng.create seed in
  let plan = random_plan rng in
  let engine = Engine.create () in
  let net =
    Network.create ~faults:plan ~crashed:(Node_id.Tbl.create 1) ~engine
      ~rng:(Prng.create (seed lxor 0x5eed))
      ~latency:(Latency.Uniform { min = 1.0; max = 10.0 })
      ()
  in
  let obs = Obs.Log.create () in
  let transport = Transport.create ~obs ~engine ~network:net () in
  let received : (int * int, int list) Hashtbl.t = Hashtbl.create 16 in
  Transport.on_deliver transport (fun ~src ~dst k ->
      let key = (Node_id.to_int src, Node_id.to_int dst) in
      let sofar = Option.value ~default:[] (Hashtbl.find_opt received key) in
      Hashtbl.replace received key (k :: sofar));
  (* Spread the sends over virtual time so they interact with the cut
     windows, not just with loss and duplication. *)
  for k = 0 to messages_per_pair - 1 do
    ignore
      (Engine.schedule engine
         ~delay:(float_of_int k *. 7.0)
         (fun () ->
           for src = 0 to node_count - 1 do
             for dst = 0 to node_count - 1 do
               if src <> dst then
                 Transport.send transport ~src:(n src) ~dst:(n dst) k
             done
           done))
  done;
  Engine.run engine;
  Obs.Log.iter obs (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Stall _ ->
          QCheck2.Test.fail_reportf "seed %d: channel stalled under a finite plan" seed
      | _ -> ());
  let expected = List.init messages_per_pair Fun.id in
  for src = 0 to node_count - 1 do
    for dst = 0 to node_count - 1 do
      if src <> dst then
        let got =
          List.rev
            (Option.value ~default:[] (Hashtbl.find_opt received (src, dst)))
        in
        if got <> expected then
          QCheck2.Test.fail_reportf
            "seed %d: channel %d->%d delivered %s (plan %s)" seed src dst
            (String.concat "," (List.map string_of_int got))
            (Format.asprintf "%a" Faults.pp plan)
    done
  done;
  true

let prop_exactly_once_fifo =
  QCheck2.Test.make ~name:"ARQ: exactly-once FIFO over adversarial plans"
    ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    check_exactly_once_fifo

(* ------------------------------------------------------------------ *)
(* CD1-CD7 end-to-end over Arq_over_faulty                             *)

let lossy_plan rng =
  { Faults.drop = Prng.float rng 0.3; dup = Prng.float rng 0.1;
    reorder = Prng.int rng 3; cuts = [] }

let arq_random_run seed =
  let rng = Prng.create seed in
  let graph =
    Prng.choose rng [ Topology.ring 16; Topology.torus 4 4; Topology.grid 4 5 ]
  in
  let size = 1 + Prng.int rng 3 in
  let crashes =
    Fault_gen.crash_at 10.0 (Fault_gen.connected_region rng graph ~size)
  in
  let plan = lossy_plan rng in
  let options =
    {
      Runner.default_options with
      Runner.seed;
      channel = Transport.Arq_over_faulty (plan, Transport.default_policy);
      channel_consistent_fd = true;
      max_events = 5_000_000;
    }
  in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  (outcome, Checker.check ~value_equal:String.equal outcome)

let prop_cd_hold_over_arq =
  QCheck2.Test.make ~name:"CD1-CD7 hold over ARQ with loss <= 0.3" ~count:80
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let outcome, report = arq_random_run seed in
      if not outcome.quiescent then
        QCheck2.Test.fail_reportf "seed %d: run not quiescent" seed;
      if outcome.stalled_channels <> [] then
        QCheck2.Test.fail_reportf "seed %d: stalled channel without a partition"
          seed;
      if not (Checker.ok report) then
        QCheck2.Test.fail_reportf "seed %d: %s" seed
          (Format.asprintf "%a" Checker.pp_report report);
      true)

(* ------------------------------------------------------------------ *)
(* Raw faulty wire breaks the spec; the ARQ is what repairs it         *)

let lossy_wire = { Faults.none with Faults.drop = 0.25 }

let run_lossy ~channel ~channel_consistent_fd seed =
  let graph = Topology.ring 16 in
  let rng = Prng.create (4000 + seed) in
  let crashes =
    Fault_gen.crash_at 10.0 (Fault_gen.connected_region rng graph ~size:3)
  in
  let options =
    { Runner.default_options with Runner.seed; channel; channel_consistent_fd }
  in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  (outcome, Checker.check ~value_equal:String.equal outcome)

let seeds = List.init 40 Fun.id

let test_raw_faulty_breaks_spec () =
  (* Raw lossy wire + raw detector: protocol messages silently vanish,
     so the rounds lose agreement/termination on some seed.  This is
     the negative control showing the channel assumption is
     load-bearing. *)
  let violations =
    List.concat_map
      (fun seed ->
        let _, report =
          run_lossy ~channel:(Transport.Raw_faulty lossy_wire)
            ~channel_consistent_fd:false seed
        in
        report.Checker.violations)
      seeds
  in
  Alcotest.(check bool) "some seed violates the spec" true (violations <> []);
  Alcotest.(check bool)
    "border agreement (CD4/CD5) is among the casualties" true
    (List.exists
       (fun v ->
         v.Checker.property = Checker.CD4_border_termination
         || v.Checker.property = Checker.CD5_uniform_border_agreement)
       violations)

let test_arq_repairs_same_wire () =
  (* Same wire, same seeds, ARQ on top: every run is clean again. *)
  List.iter
    (fun seed ->
      let outcome, report =
        run_lossy
          ~channel:
            (Transport.Arq_over_faulty (lossy_wire, Transport.default_policy))
          ~channel_consistent_fd:true seed
      in
      if not (Checker.ok report) then
        Alcotest.failf "seed %d: violation over ARQ: %s" seed
          (Format.asprintf "%a" Checker.pp_report report);
      Alcotest.(check bool) "quiescent" true outcome.quiescent)
    seeds

(* ------------------------------------------------------------------ *)
(* Permanent partition: stall diagnostic instead of silent livelock    *)

let test_permanent_cut_stalls () =
  (* ring:8 with {3,4} crashed has border {2,5}; severing 2-5 forever
     makes their agreement round impossible.  The ARQ must give up and
     surface the channel rather than retransmit unboundedly. *)
  let graph = Topology.ring 8 in
  let crashes = Fault_gen.crash_at 10.0 (Node_set.of_ints [ 3; 4 ]) in
  let plan =
    {
      Faults.none with
      Faults.cuts =
        [ { Faults.from_time = 0.0; until_time = infinity; a = n 2; b = n 5 } ];
    }
  in
  let options =
    {
      Runner.default_options with
      Runner.channel = Transport.Arq_over_faulty (plan, Transport.default_policy);
    }
  in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  let stalled =
    List.map
      (fun (src, dst) -> (Node_id.to_int src, Node_id.to_int dst))
      outcome.stalled_channels
  in
  Alcotest.(check (list (pair int int)))
    "both directions of the severed border channel stall" [ (2, 5); (5, 2) ]
    stalled;
  Alcotest.(check bool) "retransmissions were attempted" true
    (Stats.retransmitted outcome.stats > 0)

let test_flush_time_over_arq () =
  (* A live sender with unacknowledged frames can still retransmit, so
     its channel has no finite flush floor; once the sender crashes the
     floor collapses to the underlying network's. *)
  let engine = Engine.create () in
  let crashed = Node_id.Tbl.create 1 in
  let net =
    Network.create
      ~faults:{ Faults.none with Faults.drop = 1.0 }
      ~crashed ~engine ~rng:(Prng.create 7) ~latency:(Latency.Constant 5.0) ()
  in
  let transport = Transport.create ~obs:(Obs.Log.create ()) ~engine ~network:net () in
  Transport.on_deliver transport (fun ~src:_ ~dst:_ _ -> ());
  Transport.send transport ~src:(n 1) ~dst:(n 2) "doomed";
  Alcotest.(check bool) "unacked => no finite floor" true
    (Transport.flush_time transport ~src:(n 1) ~dst:(n 2) = infinity);
  Node_id.Tbl.replace crashed (n 1) 0;
  Transport.crash transport (n 1);
  Alcotest.(check bool) "crashed sender => underlying floor" true
    (Transport.flush_time transport ~src:(n 1) ~dst:(n 2) = neg_infinity);
  Engine.run engine

let suite =
  ( "arq transport",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_exactly_once_fifo;
      QCheck_alcotest.to_alcotest ~long:true prop_cd_hold_over_arq;
      Alcotest.test_case "raw faulty wire breaks spec" `Quick
        test_raw_faulty_breaks_spec;
      Alcotest.test_case "ARQ repairs the same wire" `Quick
        test_arq_repairs_same_wire;
      Alcotest.test_case "permanent cut stalls" `Quick test_permanent_cut_stalls;
      Alcotest.test_case "flush_time over ARQ" `Quick test_flush_time_over_arq;
    ] )
