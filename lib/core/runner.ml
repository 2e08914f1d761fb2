open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Latency = Cliffedge_net.Latency
module Network = Cliffedge_net.Network
module Transport = Cliffedge_net.Transport
module Stats = Cliffedge_net.Stats
module Failure_detector = Cliffedge_detector.Failure_detector
module Substrate = Cliffedge_detector.Substrate
module Obs = Cliffedge_obs

type 'v decision = {
  node : Node_id.t;
  view : View.t;
  value : 'v;
  time : float;
  event : int option;
}

type options = {
  seed : int;
  message_latency : Latency.t;
  detection_latency : Latency.t;
  early_stopping : bool;
  channel_consistent_fd : bool;
  channel : Transport.channel;
  max_events : int;
  false_suspicions : (float * Node_id.t * Node_id.t) list;
}

let default_options =
  {
    seed = 0;
    message_latency = Latency.Uniform { min = 1.0; max = 10.0 };
    detection_latency = Latency.Uniform { min = 1.0; max = 20.0 };
    early_stopping = true;
    channel_consistent_fd = true;
    channel = Transport.Reliable;
    max_events = 50_000_000;
    false_suspicions = [];
  }

type 'v outcome = {
  graph : Graph.t;
  crashes : (float * Node_id.t) list;
  decisions : 'v decision list;
  stats : Stats.t;
  crashed : Node_set.t;
  duration : float;
  engine_events : int;
  quiescent : bool;
  stalled_channels : (Node_id.t * Node_id.t) list;
  states : (Node_id.t * 'v Protocol.state) list;
  obs : Obs.Log.t;
  geometry : Fault_geometry.t option;
}

(* A runner-pluggable node: the runner is generic in the machine it
   drives, so the differential suite can replay a scenario against the
   flat protocol and the map-based oracle
   ({!Cliffedge_baseline.Protocol_ref}) through the identical
   substrate.  Steppers own their state internally (one mutable cell
   per node, allocated at setup) — the hot loop makes no per-event
   closure. *)
type 'v stepper = {
  step : 'v Protocol.event -> 'v Protocol.action list;
  flat_state : unit -> 'v Protocol.state option;
      (** [None] for machines that are not the flat core (the outcome's
          [states] field then omits the node) *)
  decision : unit -> (View.t * 'v) option;
}

(* An activated node: its stepper, and per consensus instance (a handful,
   searched by view) the seq of the last round-chain event it recorded,
   so propose -> round -> ... -> decide threads within an instance even
   when deliveries of other instances interleave. *)
type tip = { instance : View.t; mutable last : int }

type 'v node = { stepper : 'v stepper; mutable tips : tip list }

let rec find_tip view = function
  | [] -> None
  | tip :: tl -> if Node_set.equal tip.instance view then Some tip else find_tip view tl

let set_tip node view seq =
  match find_tip view node.tips with
  | Some tip -> tip.last <- seq
  | None -> node.tips <- { instance = view; last = seq } :: node.tips

let protocol_stepper cfg ~self =
  let cell = ref (Protocol.init ~self) in
  {
    step =
      (fun event ->
        let st, actions = Protocol.handle cfg !cell event in
        cell := st;
        actions);
    flat_state = (fun () -> Some !cell);
    decision = (fun () -> Protocol.decided !cell);
  }

(* Only the ARQ gives up on a channel, and each give-up is one [Stall]
   event of the sender. *)
let stalled_channels obs =
  let stalled = ref [] in
  for seq = 0 to Obs.Log.length obs - 1 do
    match Obs.Log.kind obs seq with
    | Obs.Event.Stall { dst } -> stalled := (Obs.Log.node obs seq, dst) :: !stalled
    | _ -> ()
  done;
  List.sort_uniq
    (fun (s1, d1) (s2, d2) ->
      let c = Node_id.compare s1 s2 in
      if c <> 0 then c else Node_id.compare d1 d2)
    !stalled

let run_stepper ?(options = default_options) ~graph ~crashes ~make () =
  List.iter
    (fun (_, p) ->
      if not (Graph.mem_node p graph) then
        invalid_arg "Runner.run: crash schedule names a node outside the graph")
    crashes;
  (* Geometry deltas ride the crash-injection thunks, so the tracker is
     exact at every simulated instant and the final snapshot costs the
     checker nothing to consume. *)
  let geom_tracker = Incr_geometry.create graph in
  let substrate =
    Substrate.create ~channel:options.channel ~geometry:geom_tracker
      ~seed:options.seed ~message_latency:options.message_latency
      ~detection_latency:options.detection_latency
      ~channel_consistent_fd:options.channel_consistent_fd ()
  in
  let { Substrate.engine; detector; obs; _ } = substrate in
  (* The activated nodes only: a run that touches a region of a
     million-node graph holds nodes for the region's neighbourhood,
     whatever the region's ids. *)
  let nodes = Node_id.Tbl.create 16 in
  let decisions = ref [] in
  let chain_parent node view =
    match find_tip view node.tips with
    | Some tip -> Some tip.last
    | None -> Obs.Log.context obs
  in
  let observe ?parent p view kind =
    Obs.Log.record obs ~time:(Engine.now engine) ~node:p ~instance:view ?parent kind
  in
  (* Records a round-chain event and makes it the chain's new tip. *)
  let extend_chain p node view kind =
    set_tip node view (observe ?parent:(chain_parent node view) p view kind)
  in
  (* Whether a step's actions include a [Send] at all: the batching
     scope only affects message envelopes, so pure local steps (Init's
     Monitor, a Decide with no cascade) skip its bookkeeping. *)
  let rec has_send = function
    | [] -> false
    | Protocol.Send _ :: _ -> true
    | _ :: tl -> has_send tl
  in
  let rec execute p node action =
    match action with
    | Protocol.Monitor targets ->
        Failure_detector.monitor detector ~observer:p ~targets
    | Protocol.Send { dst; msg } ->
        Substrate.send substrate ~units:(Message.units msg) ~src:p ~dst msg
    | Protocol.Decide { view; value } ->
        let seq = observe ?parent:(chain_parent node view) p view Obs.Event.Decide in
        decisions :=
          { node = p; view; value; time = Engine.now engine; event = Some seq }
          :: !decisions
    | Protocol.Note (Protocol.Proposed view) ->
        set_tip node view (observe ?parent:(Obs.Log.context obs) p view Obs.Event.Propose)
    | Protocol.Note (Protocol.Rejected_view view) ->
        ignore (observe ?parent:(Obs.Log.context obs) p view Obs.Event.Reject)
    | Protocol.Note (Protocol.Attempt_failed view) ->
        extend_chain p node view Obs.Event.Abort
    | Protocol.Note (Protocol.Advanced_round { view; round }) ->
        extend_chain p node view (Obs.Event.Round { round })
    | Protocol.Note (Protocol.Early_outcome { view; success }) ->
        extend_chain p node view (Obs.Event.Early_outcome { success })
  and step p node event =
    match node.stepper.step event with
    | [] -> ()
    | actions ->
        (* One batching scope per protocol step: everything this step
           sends to a given neighbour — a cascade of round advances, a
           rejection plus a proposal — rides one envelope. *)
        if has_send actions then
          Substrate.batched substrate (fun () -> List.iter (execute p node) actions)
        else List.iter (execute p node) actions
  (* A node comes up — its stepper is built and fed [Init] — at its
     first contact with the run: a crash at or next to it, a false
     suspicion it observes, or a delivery.  Init of a node with no
     crashed neighbour only subscribes to live nodes, which draws
     nothing from the PRNG and schedules nothing, so activating late
     is indistinguishable from booting every node at time 0: a crashed
     node has a crashed neighbour only if that neighbour's own crash
     activated it first. *)
  and active p =
    match Node_id.Tbl.find_opt nodes p with
    | Some node -> node
    | None ->
        let node = { stepper = make p; tips = [] } in
        Node_id.Tbl.add nodes p node;
        step p node Protocol.Init;
        node
  and dispatch p event =
    if not (Substrate.is_crashed substrate p) then step p (active p) event
  in
  let ensure_active p = ignore (active p) in
  Substrate.on_deliver substrate (fun ~src ~dst msg ->
      dispatch dst (Protocol.Deliver { src; msg }));
  Substrate.on_crash_notification substrate (fun ~observer ~crashed ->
      dispatch observer (Protocol.Crash crashed));
  (* Before the detector looks for the observers of a crashing node,
     the node and all its neighbours are up and subscribed. *)
  Substrate.before_crash substrate (fun q ->
      ensure_active q;
      Node_set.iter ensure_active (Graph.neighbours graph q));
  (* Inject the fault schedule and run to quiescence. *)
  Substrate.schedule_crashes substrate crashes;
  List.iter
    (fun (time, observer, target) ->
      ignore
        (Engine.schedule_at engine ~time (fun () ->
             if Graph.mem_node observer graph then ensure_active observer;
             Failure_detector.inject_false_suspicion detector ~observer ~target)))
    options.false_suspicions;
  Substrate.run ~max_events:options.max_events substrate;
  let states =
    Node_id.Tbl.fold
      (fun p node acc ->
        match node.stepper.flat_state () with Some st -> (p, st) :: acc | None -> acc)
      nodes []
    |> List.sort (fun (p, _) (q, _) -> Node_id.compare p q)
  in
  {
    graph;
    crashes;
    decisions =
      (* Tie-break equal-time decisions on their event seq so the order
         is total and matches the causal log. *)
      List.sort
        (fun a b ->
          let c = Float.compare a.time b.time in
          if c <> 0 then c
          else
            Int.compare
              (Option.value ~default:0 a.event)
              (Option.value ~default:0 b.event))
        !decisions;
    stats = Substrate.stats substrate;
    crashed = Substrate.crashed_nodes substrate;
    duration = Engine.now engine;
    engine_events = Engine.events_processed engine;
    quiescent = Engine.pending engine = 0;
    stalled_channels =
      (match options.channel with
      | Transport.Arq_over_faulty _ -> stalled_channels obs
      | Transport.Reliable | Transport.Raw_faulty _ -> []);
    states;
    obs;
    geometry = Some (Incr_geometry.snapshot geom_tracker);
  }

let run ?(options = default_options) ?rank ~graph ~crashes ~propose_value () =
  let cfg =
    Protocol.config ~early_stopping:options.early_stopping ?rank ~graph
      ~propose_value ()
  in
  run_stepper ~options ~graph ~crashes
    ~make:(fun p -> protocol_stepper cfg ~self:p)
    ()

let deciders outcome =
  List.fold_left
    (fun acc d -> Node_set.add d.node acc)
    Node_set.empty outcome.decisions

let decided_views outcome =
  List.fold_left
    (fun acc d -> if List.exists (Node_set.equal d.view) acc then acc else d.view :: acc)
    [] outcome.decisions
  |> List.rev

(* Through the field reader: [Obs.Log.iter] would build a whole
   [Event.t] per event to read its kind. *)
let fold_log outcome f init =
  let acc = ref init in
  for seq = 0 to Obs.Log.length outcome.obs - 1 do
    acc := f !acc (Obs.Log.kind outcome.obs seq)
  done;
  !acc

let restart_count outcome =
  fold_log outcome (fun n -> function Obs.Event.Abort -> n + 1 | _ -> n) 0

let max_round outcome =
  fold_log outcome
    (fun acc -> function
      | Obs.Event.Round { round } -> Int.max acc round
      | Obs.Event.Propose -> Int.max acc 1
      | _ -> acc)
    0

let pp_outcome pp_value ppf outcome =
  Format.fprintf ppf "@[<v>run: %d crash(es), %d decision(s), %a, t=%.1f%s@,"
    (Node_set.cardinal outcome.crashed)
    (List.length outcome.decisions)
    Stats.pp outcome.stats outcome.duration
    (if outcome.quiescent then "" else " (EVENT CAP HIT)");
  (match outcome.stalled_channels with
  | [] -> ()
  | stalled ->
      Format.fprintf ppf "  STALLED channels (ARQ gave up):";
      List.iter
        (fun (src, dst) ->
          Format.fprintf ppf " %a->%a" Node_id.pp src Node_id.pp dst)
        stalled;
      Format.fprintf ppf "@,");
  List.iter
    (fun d ->
      Format.fprintf ppf "  t=%8.1f  %a decides %a on %a@," d.time Node_id.pp d.node
        pp_value d.value View.pp d.view)
    outcome.decisions;
  Format.fprintf ppf "@]"
