open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Network = Cliffedge_net.Network
module Failure_detector = Cliffedge_detector.Failure_detector
module Substrate = Cliffedge_detector.Substrate

type options = Global_runner.options

type outcome = {
  graph : Graph.t;
  stats : Cliffedge_net.Stats.t;
  crashed : Node_set.t;
  duration : float;
  quiescent : bool;
  installs : (Node_id.t * int) list;
  final_views : (Node_id.t * Node_set.t) list;
}

let run ?(options = Global_runner.default_options) ~graph ~crashes () =
  let substrate =
    Substrate.create ~seed:options.Global_runner.seed
      ~message_latency:options.Global_runner.message_latency
      ~detection_latency:options.Global_runner.detection_latency
      ~channel_consistent_fd:true ()
  in
  let { Substrate.engine; detector; _ } = substrate in
  let states : (int, Membership.state ref) Hashtbl.t = Hashtbl.create 64 in
  let execute p = function
    | Membership.Monitor targets ->
        Failure_detector.monitor detector ~observer:p ~targets
    | Membership.Send { dst; view } ->
        Substrate.send substrate
          ~units:(4 + Node_set.cardinal view)
          ~src:p ~dst view
    | Membership.Install _ -> ()
  in
  let dispatch p event =
    if not (Substrate.is_crashed substrate p) then begin
      let cell = Hashtbl.find states (Node_id.to_int p) in
      let st, actions = Membership.handle !cell event in
      cell := st;
      List.iter (execute p) actions
    end
  in
  Substrate.on_deliver substrate (fun ~src ~dst view ->
      dispatch dst (Membership.Deliver { src; view }));
  Failure_detector.on_crash_notification detector (fun ~observer ~crashed ->
      dispatch observer (Membership.Crash crashed));
  Node_set.iter
    (fun p ->
      Hashtbl.replace states (Node_id.to_int p) (ref (Membership.init ~graph ~self:p)))
    (Graph.nodes graph);
  Node_set.iter (fun p -> dispatch p Membership.Init) (Graph.nodes graph);
  Substrate.schedule_crashes substrate crashes;
  Substrate.run ~max_events:options.Global_runner.max_events substrate;
  let crashed = Substrate.crashed_nodes substrate in
  let survivors =
    Hashtbl.fold
      (fun p cell acc ->
        let p = Node_id.of_int p in
        if Node_set.mem p crashed then acc else (p, !cell) :: acc)
      states []
    |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b)
  in
  {
    graph;
    stats = Substrate.stats substrate;
    crashed;
    duration = Engine.now engine;
    quiescent = Engine.pending engine = 0;
    installs = List.map (fun (p, st) -> (p, Membership.installs st)) survivors;
    final_views = List.map (fun (p, st) -> (p, Membership.current_view st)) survivors;
  }

let converged outcome =
  let expected = Node_set.diff (Graph.nodes outcome.graph) outcome.crashed in
  List.for_all (fun (_, view) -> Node_set.equal view expected) outcome.final_views

let total_installs outcome =
  List.fold_left (fun acc (_, installs) -> acc + (installs - 1)) 0 outcome.installs
