open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Latency = Cliffedge_net.Latency
module Network = Cliffedge_net.Network
module Stats = Cliffedge_net.Stats
module Failure_detector = Cliffedge_detector.Failure_detector
module Substrate = Cliffedge_detector.Substrate

type decision = { node : Node_id.t; value : Node_set.t; time : float }

type options = {
  seed : int;
  message_latency : Latency.t;
  detection_latency : Latency.t;
  max_events : int;
}

let default_options =
  {
    seed = 0;
    message_latency = Latency.Uniform { min = 1.0; max = 10.0 };
    detection_latency = Latency.Uniform { min = 1.0; max = 20.0 };
    max_events = 50_000_000;
  }

type outcome = {
  graph : Graph.t;
  decisions : decision list;
  stats : Stats.t;
  crashed : Node_set.t;
  duration : float;
  engine_events : int;
  quiescent : bool;
}

let run ?(options = default_options) ~graph ~crashes () =
  (* Channel-consistent detector, like the cliff-edge runner. *)
  let substrate =
    Substrate.create ~seed:options.seed ~message_latency:options.message_latency
      ~detection_latency:options.detection_latency ~channel_consistent_fd:true ()
  in
  let { Substrate.engine; detector; _ } = substrate in
  let states : (int, Flooding.state ref) Hashtbl.t = Hashtbl.create 64 in
  let decisions = ref [] in
  let execute p = function
    | Flooding.Monitor targets -> Failure_detector.monitor detector ~observer:p ~targets
    | Flooding.Send { dst; msg } ->
        Substrate.send substrate ~units:(Flooding.msg_units msg) ~src:p ~dst msg
    | Flooding.Decide value ->
        decisions := { node = p; value; time = Engine.now engine } :: !decisions
  in
  let dispatch p event =
    if not (Substrate.is_crashed substrate p) then begin
      let cell = Hashtbl.find states (Node_id.to_int p) in
      let st, actions = Flooding.handle !cell event in
      cell := st;
      List.iter (execute p) actions
    end
  in
  Substrate.on_deliver substrate (fun ~src ~dst msg ->
      dispatch dst (Flooding.Deliver { src; msg }));
  Failure_detector.on_crash_notification detector (fun ~observer ~crashed ->
      dispatch observer (Flooding.Crash crashed));
  Node_set.iter
    (fun p ->
      Hashtbl.replace states (Node_id.to_int p) (ref (Flooding.init ~graph ~self:p)))
    (Graph.nodes graph);
  Node_set.iter (fun p -> dispatch p Flooding.Init) (Graph.nodes graph);
  Substrate.schedule_crashes substrate crashes;
  Substrate.run ~max_events:options.max_events substrate;
  {
    graph;
    decisions = List.sort (fun a b -> Float.compare a.time b.time) !decisions;
    stats = Substrate.stats substrate;
    crashed = Substrate.crashed_nodes substrate;
    duration = Engine.now engine;
    engine_events = Engine.events_processed engine;
    quiescent = Engine.pending engine = 0;
  }

let agreement_ok outcome =
  match outcome.decisions with
  | [] -> true
  | first :: rest -> List.for_all (fun d -> Node_set.equal d.value first.value) rest

let deciders outcome =
  List.fold_left (fun acc d -> Node_set.add d.node acc) Node_set.empty outcome.decisions
