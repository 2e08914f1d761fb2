(* The benchmark's workloads and the op each one repeats.

   An op is one checked agreement: [Runner.run] on a generated graph and
   crash schedule, then [Checker.check] (CD1-CD7).  For [mcheck-small]
   an op is one exhaustive exploration of two fixed configurations.
   The benchmark generates every scenario itself from the run's seed;
   the library only sees the resulting graph, schedule and options.

   The traced variant of an op runs the same agreement through
   [Runner.run_stepper] with an instrumented [Runner.protocol_stepper],
   then measures the layers the runner does not expose one at a time
   from outside: a run with steppers that do nothing, a run with
   steppers that only subscribe to their neighbours, a replay of the
   op's sends through a fresh substrate, a replay of its causal log,
   and its fault geometry rebuilt crash by crash. *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Protocol = Cliffedge.Protocol
module Scenario = Cliffedge.Scenario
module Fault_gen = Cliffedge_workload.Fault_gen
module Prng = Cliffedge_prng.Prng
module Transport = Cliffedge_net.Transport
module Faults = Cliffedge_net.Faults
module Stats = Cliffedge_net.Stats
module Engine = Cliffedge_sim.Engine
module Substrate = Cliffedge_detector.Substrate
module Explorer = Cliffedge_mcheck.Explorer
module Obs = Cliffedge_obs

type scenario = {
  graph : Graph.t;
  crashes : (float * Node_id.t) list;
  options : Runner.options;
}

type kind =
  | Agreement of {
      graph : unit -> Graph.t;
      channel : Transport.channel;
      schedule : Prng.t -> Graph.t -> (float * Node_id.t) list;
    }
  | Model_check

type t = {
  name : string;
  warmup : int;  (** untimed ops run by each set-up *)
  kind : kind;
}

let crash_time = 10.0

let ring32_reliable =
  {
    name = "ring32-reliable";
    warmup = 2000;
    kind =
      Agreement
        {
          graph = (fun () -> Topology.ring 32);
          channel = Transport.Reliable;
          schedule =
            (fun rng g -> Fault_gen.crash_at crash_time (Fault_gen.connected_region rng g ~size:2));
        };
  }

let torus16_cascade =
  {
    name = "torus16-cascade";
    warmup = 10;
    kind =
      Agreement
        {
          graph = (fun () -> Topology.torus 16 16);
          channel = Transport.Reliable;
          schedule =
            (fun rng g ->
              let seed_region =
                Fault_gen.connected_region_from rng g ~seed_node:(Node_id.of_int 120) ~size:8
              in
              fst
                (Fault_gen.cascade rng g ~seed_region ~depth:3 ~start:crash_time
                   ~interval:25.0));
        };
  }

let torus8_lossy_arq =
  {
    name = "torus8-lossy-arq";
    warmup = 50;
    kind =
      Agreement
        {
          graph = (fun () -> Topology.torus 8 8);
          channel =
            Transport.Arq_over_faulty
              ({ Faults.none with drop = 0.2; dup = 0.05 }, Transport.default_policy);
          schedule =
            (fun rng g -> Fault_gen.crash_at crash_time (Fault_gen.connected_region rng g ~size:4));
        };
  }

let iring_nodes = 10_000

let iring10k_sparse =
  {
    name = "iring10k-sparse";
    warmup = 5;
    kind =
      Agreement
        {
          graph = (fun () -> Topology.implicit_ring iring_nodes);
          channel = Transport.Reliable;
          schedule =
            (fun rng g ->
              let seed_node = Node_id.of_int (Prng.int rng iring_nodes) in
              Fault_gen.crash_at crash_time (Fault_gen.compact_region g ~seed_node ~size:8));
        };
  }

let mcheck_small = { name = "mcheck-small"; warmup = 5; kind = Model_check }

let all = [ ring32_reliable; torus16_cascade; torus8_lossy_arq; iring10k_sparse; mcheck_small ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The two configurations of the X10 table an [mcheck-small] op
   explores, with the state counts an exhaustive search must reach. *)
let explored =
  let n = Node_id.of_int in
  [
    ((fun () -> Topology.ring 6), [ n 2; n 3; n 4 ], 414);
    ((fun () -> Topology.path 5), [ n 2; n 3; n 1 ], 341);
  ]

(* ------------------------------------------------------------------ *)
(* Set-up: the scenario pool                                           *)

(* Scenarios an instance cycles through.  Large enough that a run draws
   from a few hundred distinct regions and latency seeds, so the op-time
   distribution does not hinge on a handful of them. *)
let pool_size = 1024

type instance = {
  workload : t;
  pool : scenario array;
      (** the op's scenarios; for [mcheck-small], the explored
          configurations as runner scenarios, which the traced run uses
          for its layer rows *)
  configs : (Graph.t * Node_id.t list * int) list;  (** [mcheck-small] only *)
}

let prepare w ~seed =
  let rng = Prng.create seed in
  let options channel =
    { Runner.default_options with channel; seed = Prng.int rng (1 lsl 30) }
  in
  match w.kind with
  | Agreement a ->
      let graph = a.graph () in
      let pool =
        Array.init pool_size (fun _ ->
            let crashes = a.schedule rng graph in
            { graph; crashes; options = options a.channel })
      in
      { workload = w; pool; configs = [] }
  | Model_check ->
      let configs = List.map (fun (g, crashes, states) -> (g (), crashes, states)) explored in
      let cascade crashes =
        List.mapi (fun i p -> ((if i < 2 then crash_time else crash_time +. 25.0), p)) crashes
      in
      let pool =
        Array.of_list
          (List.map
             (fun (graph, crashes, _) ->
               { graph; crashes = cascade crashes; options = options Transport.Reliable })
             configs)
      in
      { workload = w; pool; configs }

(* ------------------------------------------------------------------ *)
(* The op                                                              *)

let checked (outcome : string Runner.outcome) report =
  Checker.ok report && outcome.quiescent
  && match outcome.stalled_channels with [] -> true | _ :: _ -> false

let agreement sc =
  let outcome =
    Runner.run ~options:sc.options ~graph:sc.graph ~crashes:sc.crashes
      ~propose_value:Scenario.default_propose ()
  in
  checked outcome (Checker.check ~value_equal:String.equal outcome)

let explore_ok (graph, crashes, states) =
  let stats = Explorer.explore ~graph ~crashes () in
  (stats, Explorer.ok stats && stats.states_explored = states)

(* Runs op [i] of the instance; [true] when every check passed. *)
let op inst i =
  match inst.workload.kind with
  | Agreement _ -> agreement inst.pool.(i mod Array.length inst.pool)
  | Model_check -> List.for_all snd (List.map explore_ok inst.configs)

let setup w ~seed =
  let inst = prepare w ~seed in
  for i = 0 to w.warmup - 1 do
    ignore (op inst i)
  done;
  inst

(* ------------------------------------------------------------------ *)
(* The traced op                                                       *)

(* Counts taken at the layer boundaries of traced ops, summed over the
   traced phase. *)
type counts = {
  mutable sends : int;  (** [Send] actions returned by protocol steps *)
  mutable subscriptions : int;  (** nodes named by [Monitor] actions *)
  mutable notifications : int;  (** [Suspect] events in the causal log *)
  mutable wire_sends : int;  (** [Stats.sent]: wire messages incl. retransmits *)
  mutable logical_sends : int;  (** [Send] events in the causal log *)
  mutable units : int;
  mutable delivered : int;
  mutable retransmits : int;
  mutable dedups : int;
  mutable stalls : int;
  mutable engine_events : int;
  mutable replay_events : int;
  mutable obs_events : int;
  mutable breadcrumbs : int;  (** protocol events the runner records in the log *)
  mutable geometry_crashes : int;
  mutable states : int;
  mutable transitions : int;
  mutable decide_vt : float list;
}

let counts () =
  {
    sends = 0;
    subscriptions = 0;
    notifications = 0;
    wire_sends = 0;
    logical_sends = 0;
    units = 0;
    delivered = 0;
    retransmits = 0;
    dedups = 0;
    stalls = 0;
    engine_events = 0;
    replay_events = 0;
    obs_events = 0;
    breadcrumbs = 0;
    geometry_crashes = 0;
    states = 0;
    transitions = 0;
    decide_vt = [];
  }

let rec count_actions c = function
  | [] -> ()
  | Protocol.Send _ :: tl ->
      c.sends <- c.sends + 1;
      count_actions c tl
  | Protocol.Monitor targets :: tl ->
      c.subscriptions <- c.subscriptions + Node_set.cardinal targets;
      count_actions c tl
  | (Protocol.Decide _ | Protocol.Note _) :: tl -> count_actions c tl

let no_state () = None

(* The agreement through an instrumented protocol stepper: every [step]
   is charged to the aggregate span of its event kind, every stepper
   construction to [core.runner.make]. *)
let instrumented_run spans c ~(parent : Spans.span) sc =
  Spans.timed spans ~parent:parent.id ~op:parent.op "core.runner" (fun rs ->
      let init = Spans.aggregate spans ~parent:rs "core.protocol.init" in
      let crash = Spans.aggregate spans ~parent:rs "core.protocol.crash" in
      let deliver = Spans.aggregate spans ~parent:rs "core.protocol.deliver" in
      let make = Spans.aggregate spans ~parent:rs "core.runner.make" in
      let cfg =
        Protocol.config ~early_stopping:sc.options.early_stopping ~graph:sc.graph
          ~propose_value:Scenario.default_propose ()
      in
      let make p =
        let start = Spans.now () in
        let inner = Runner.protocol_stepper cfg ~self:p in
        Spans.charge make ~start;
        {
          inner with
          Runner.step =
            (fun event ->
              let start = Spans.now () in
              let actions = inner.step event in
              Spans.charge
                (match event with
                | Protocol.Init -> init
                | Protocol.Crash _ -> crash
                | Protocol.Deliver _ -> deliver)
                ~start;
              count_actions c actions;
              actions);
        }
      in
      Runner.run_stepper ~options:sc.options ~graph:sc.graph ~crashes:sc.crashes ~make ())

let null_stepper = { Runner.step = (fun _ -> []); flat_state = no_state; decision = no_state }

(* Runner set-up, substrate, crash injection and the drain to
   quiescence, with no protocol and no subscriptions. *)
let probe_null spans ~op sc =
  Spans.timed spans ~op "probe.null_run" (fun _ ->
      ignore
        (Runner.run_stepper ~options:sc.options ~graph:sc.graph ~crashes:sc.crashes
           ~make:(fun _ -> (null_stepper : string Runner.stepper))
           ()))

(* As the null run, plus the failure detector: each node subscribes to
   its neighbours at [Init], as the protocol does.  The probe stepper's
   own time is charged to a child span so it drops out of the self
   time. *)
let probe_monitor spans ~op sc =
  Spans.timed spans ~op "probe.monitor_run" (fun s ->
      let own = Spans.aggregate spans ~parent:s "probe.monitor_stepper" in
      let make p =
        {
          Runner.step =
            (fun event ->
              let start = Spans.now () in
              let actions =
                match event with
                | Protocol.Init -> [ Protocol.Monitor (Graph.neighbours sc.graph p) ]
                | Protocol.Crash _ | Protocol.Deliver _ -> []
              in
              Spans.charge own ~start;
              actions);
          flat_state = no_state;
          decision = no_state;
        }
      in
      ignore
        (Runner.run_stepper ~options:sc.options ~graph:sc.graph ~crashes:sc.crashes
           ~make:(make : Node_id.t -> string Runner.stepper)
           ()))

(* The op's sends with their virtual send time, grouped by causal
   parent (one group per protocol step, which is how the runner batches
   them), in log order. *)
let send_groups (outcome : _ Runner.outcome) =
  let groups = ref [] and current = ref [] and current_parent = ref None and time = ref 0. in
  let flush () =
    (match !current with [] -> () | g -> groups := (!time, List.rev g) :: !groups);
    current := []
  in
  Obs.Log.iter outcome.obs (fun (e : Obs.Event.t) ->
      match e.kind with
      | Obs.Event.Send { dst; units } ->
          if not (Option.equal Int.equal e.parent !current_parent) then flush ();
          current_parent := e.parent;
          time := e.time;
          current := (e.node, dst, units) :: !current
      | _ -> ());
  flush ();
  List.rev !groups

(* The op's sends through a fresh substrate (same channel and seed) to
   quiescence; creation is outside the span.  Each group is sent once
   the engine has drained the events due before its original time, so
   the event queue holds what it held during the op rather than every
   message at once. *)
let probe_substrate spans c ~op sc outcome =
  let groups = send_groups outcome in
  let o = sc.options in
  let sub =
    Substrate.create ~channel:o.channel ~seed:o.seed ~message_latency:o.message_latency
      ~detection_latency:o.detection_latency ~channel_consistent_fd:o.channel_consistent_fd ()
  in
  Substrate.on_deliver sub (fun ~src:_ ~dst:_ () -> ());
  Spans.timed spans ~op "probe.substrate_replay" (fun _ ->
      List.iter
        (fun (time, group) ->
          Engine.run ~until:time sub.engine;
          Substrate.batched sub (fun () ->
              List.iter (fun (src, dst, units) -> Substrate.send sub ~units ~src ~dst ()) group))
        groups;
      Substrate.run ~max_events:o.max_events sub);
  c.replay_events <- c.replay_events + Engine.events_processed sub.engine

let probe_obs spans c ~op (outcome : _ Runner.outcome) =
  Spans.timed spans ~op "probe.obs_replay" (fun _ ->
      let log = Obs.Log.create () in
      Obs.Log.iter outcome.obs (fun (e : Obs.Event.t) ->
          ignore
            (Obs.Log.record log ~time:e.time ~node:e.node ?instance:e.instance ?parent:e.parent
               e.kind)));
  Spans.timed spans ~op "probe.obs_metrics" (fun _ -> ignore (Obs.Metrics.of_log outcome.obs));
  Obs.Log.iter outcome.obs (fun (e : Obs.Event.t) ->
      c.obs_events <- c.obs_events + 1;
      match e.kind with
      | Obs.Event.Send _ -> c.logical_sends <- c.logical_sends + 1
      | Obs.Event.Suspect _ -> c.notifications <- c.notifications + 1
      | Obs.Event.Propose | Obs.Event.Reject | Obs.Event.Round _ | Obs.Event.Abort
      | Obs.Event.Early_outcome _ | Obs.Event.Decide ->
          c.breadcrumbs <- c.breadcrumbs + 1
      | Obs.Event.Crash | Obs.Event.Deliver _ | Obs.Event.Retransmit _ | Obs.Event.Stall _ -> ())

let probe_geometry spans c ~op sc =
  Spans.timed spans ~op "probe.geometry" (fun _ ->
      let g = Incr_geometry.create sc.graph in
      List.iter (fun (_, p) -> Incr_geometry.crash g p) sc.crashes);
  c.geometry_crashes <- c.geometry_crashes + List.length sc.crashes

(* One agreement under a root span named [root], then every probe. *)
let traced_agreement spans c ~op ~root sc =
  let outcome, ok =
    Spans.timed spans ~op root (fun r ->
        let outcome = instrumented_run spans c ~parent:r sc in
        let report =
          Spans.timed spans ~parent:r.id ~op "core.checker" (fun _ ->
              Checker.check ~value_equal:String.equal outcome)
        in
        (outcome, checked outcome report))
  in
  let stats = outcome.stats in
  c.wire_sends <- c.wire_sends + Stats.sent stats;
  c.units <- c.units + Stats.units_sent stats;
  c.delivered <- c.delivered + Stats.delivered stats;
  c.retransmits <- c.retransmits + Stats.retransmitted stats;
  c.dedups <- c.dedups + Stats.deduped stats;
  c.stalls <- c.stalls + List.length outcome.stalled_channels;
  c.engine_events <- c.engine_events + outcome.engine_events;
  c.decide_vt <- List.rev_append (Sample.decide_vt ~crashes:sc.crashes outcome.decisions) c.decide_vt;
  probe_null spans ~op sc;
  probe_monitor spans ~op sc;
  probe_substrate spans c ~op sc outcome;
  probe_obs spans c ~op outcome;
  probe_geometry spans c ~op sc;
  ok

(* Runs op [i] under tracing.  The [op] root span covers exactly what
   the untraced op does; for [mcheck-small] the explored configurations
   additionally run once each through the runner, under
   [probe.runner_op] roots, to fill the runner-side layer rows. *)
let traced_op spans c inst i =
  match inst.workload.kind with
  | Agreement _ ->
      traced_agreement spans c ~op:i ~root:"op" inst.pool.(i mod Array.length inst.pool)
  | Model_check ->
      let ok =
        Spans.timed spans ~op:i "op" (fun r ->
            List.for_all Fun.id
              (List.map
                 (fun config ->
                   let stats, ok =
                     Spans.timed spans ~parent:r.id ~op:i "mcheck.explore" (fun _ ->
                         explore_ok config)
                   in
                   c.states <- c.states + stats.states_explored;
                   c.transitions <- c.transitions + stats.transitions;
                   ok)
                 inst.configs))
      in
      Array.fold_left
        (fun ok sc -> traced_agreement spans c ~op:i ~root:"probe.runner_op" sc && ok)
        ok inst.pool
