(** Executes the protocol over the simulated substrates.

    The runner wires protocol state machines to the deterministic event
    engine, the FIFO network and the perfect failure detector, injects a
    crash schedule, and runs the system to quiescence (no pending
    events).  Because every latency draw comes from the seeded PRNG, an
    outcome is a pure function of [(graph, crashes, seed, options)].

    A node's state machine is built and fed [Init] only when the run
    first contacts the node: when it or a neighbour is about to crash,
    when it observes a false suspicion, or when a message reaches it.
    Nodes the run never touches cost nothing, so a run's cost depends
    on the crashed region and not on the size of the graph — the
    locality claim of §1, by construction.  Activation is invisible in
    the outcome: [Init] only subscribes a node to its neighbours, and a
    node with a crashed neighbour was activated by that crash, so a
    late [Init] draws no latency and schedules no event — every trace
    is byte-identical to booting every node at time 0.

    The outcome's causal log ([obs]) is the run's only record of the
    protocol's breadcrumbs (proposals, rejections, rounds, aborts, early
    outcomes, decisions) and of ARQ stalls: [stalled_channels],
    {!restart_count}, {!max_round} and {!Timeline.pp} are folds over
    it. *)

open Cliffedge_graph

type 'v decision = {
  node : Node_id.t;
  view : View.t;
  value : 'v;
  time : float;  (** virtual decision time *)
  event : int option;
      (** seq of the [Decide] event in the outcome's causal log;
          [None] only for outcomes fabricated outside the runner
          (tests) *)
}

type options = {
  seed : int;
  message_latency : Cliffedge_net.Latency.t;
  detection_latency : Cliffedge_net.Latency.t;
  early_stopping : bool;
  channel_consistent_fd : bool;
      (** [true] (default): crash notifications never overtake the
          crashed node's in-flight messages, the failure-detector
          semantics the paper's Lemma 3 implicitly needs.  [false]: raw
          detector, which can excuse a node whose accept is still in
          flight and reproduces the CD5 anomaly of experiment X9 /
          DESIGN.md §7. *)
  channel : Cliffedge_net.Transport.channel;
      (** [Reliable] (default): the paper's reliable FIFO channels.
          [Raw_faulty plan]: the protocol runs directly over a faulty
          network (assumption ablation, X16 / the CD5 regression in
          test_transport).  [Arq_over_faulty (plan, policy)]: the ARQ
          transport repairs the faulty network, re-earning the paper's
          contract. *)
  max_events : int;  (** safety valve against runaway runs *)
  false_suspicions : (float * Node_id.t * Node_id.t) list;
      (** assumption ablation (X13): at each (time, observer, target),
          deliver a false crash suspicion, breaking the detector's
          strong accuracy.  Empty (the default) keeps the detector
          perfect, as the paper requires. *)
}

val default_options : options
(** seed 0, uniform 1–10 message latency, uniform 1–20 detection latency,
    early stopping ON (footnote 6; set [early_stopping = false] for the
    base protocol), channel-consistent FD, 50M-event cap. *)

type 'v outcome = {
  graph : Graph.t;
  crashes : (float * Node_id.t) list;  (** the injected schedule *)
  decisions : 'v decision list;
      (** in decision-time order, ties broken by [Decide] event seq *)
  stats : Cliffedge_net.Stats.t;  (** message accounting *)
  crashed : Node_set.t;  (** ground truth: nodes that crashed *)
  duration : float;  (** virtual time when the run went quiescent *)
  engine_events : int;
  quiescent : bool;  (** [false] when the event cap interrupted the run *)
  stalled_channels : (Node_id.t * Node_id.t) list;
      (** ARQ channels that exhausted their retries (permanent
          partition), sorted, folded from the log's [Stall] events;
          empty on reliable and raw channels *)
  states : (Node_id.t * 'v Protocol.state) list;
      (** final state of every activated node, crashed ones included,
          in ascending id order; nodes the run never contacted are
          absent (their state is still {!Protocol.init}) *)
  obs : Cliffedge_obs.Log.t;
      (** the causal event log of the run, and its only record of the
          crashes that happened, suspicions, sends, deliveries, ARQ
          retransmissions and stalls, and protocol breadcrumbs, causally
          linked (see {!Cliffedge_obs.Event}); feed it to
          {!Cliffedge_obs.Metrics.of_log}, {!Timeline.pp} or the
          {!Cliffedge_obs.Export} family *)
  geometry : Fault_geometry.t option;
      (** final fault geometry, maintained incrementally during the run
          ({!Cliffedge_graph.Incr_geometry}) and snapshotted at
          quiescence; [None] only for outcomes fabricated outside the
          runner.  The checker consumes this instead of recomputing
          connected components over the whole faulty set. *)
}

val run :
  ?options:options ->
  ?rank:(View.t -> View.t -> int) ->
  graph:Graph.t ->
  crashes:(float * Node_id.t) list ->
  propose_value:(Node_id.t -> View.t -> 'v) ->
  unit ->
  'v outcome
(** Runs one scenario.  [crashes] pairs a virtual crash time with the
    node to kill.  [rank] overrides the region ranking's free tiebreak
    (see {!Protocol.config}); all nodes share it.
    @raise Invalid_argument if a crash names a node outside the graph,
    or names a node twice. *)

(** {1 Pluggable machines}

    The runner is generic in the state machine it drives; the
    differential suite uses this to replay one scenario against the
    flat protocol core and the map-based reference
    ({!Cliffedge_baseline.Protocol_ref}) through the identical
    substrate, and require byte-identical causal logs. *)

type 'v stepper = {
  step : 'v Protocol.event -> 'v Protocol.action list;
      (** feed one event; the stepper owns its state internally *)
  flat_state : unit -> 'v Protocol.state option;
      (** [None] for machines that are not the flat core; the outcome's
          [states] field then omits the node *)
  decision : unit -> (View.t * 'v) option;
}

val protocol_stepper : 'v Protocol.config -> self:Node_id.t -> 'v stepper
(** A node backed by {!Protocol} (what {!run} plugs in). *)

val run_stepper :
  ?options:options ->
  graph:Graph.t ->
  crashes:(float * Node_id.t) list ->
  make:(Node_id.t -> 'v stepper) ->
  unit ->
  'v outcome
(** Like {!run}, with one stepper per activated node, built by [make]
    at the node's first contact (see the module header): [make] runs
    once per node the run touches, never for the rest of the graph.
    [options.early_stopping] is NOT applied (the caller's config
    already decided it) — the remaining options drive the substrate
    exactly as {!run} does. *)

val deciders : 'v outcome -> Node_set.t

val decided_views : 'v outcome -> View.t list
(** Distinct decided views. *)

val restart_count : 'v outcome -> int
(** Number of failed consensus attempts across all nodes (the log's
    [Abort] events), the re-proposal metric of experiment X6. *)

val max_round : 'v outcome -> int
(** Highest round reached by any instance during the run: the largest
    [Round] of the log, or 1 if it holds a [Propose] but no [Round];
    0 when nothing was proposed. *)

val pp_outcome :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v outcome -> unit
