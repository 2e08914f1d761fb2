(** Shared simulation-substrate wiring.

    Every runner (cliff-edge, flooding baseline, membership) needs the
    same assembly: one engine, a seeded PRNG split between network and
    detector, a message channel, a failure detector
    (channel-consistent or raw), and the crash schedule wired to both.
    This module factors that assembly so the runners differ only in
    the state machine they drive.

    The channel comes in three flavours
    ({!Cliffedge_net.Transport.channel}): the paper's reliable FIFO
    network, a raw faulty network (assumption ablation), or the ARQ
    transport repairing a faulty network.  The conduit type hides the
    wire format — over ARQ the underlying network carries framed
    payloads — so runners talk payloads either way.

    The substrate is also where the causal event log
    ({!Cliffedge_obs.Log}) is rooted: every {!send} records a [Send]
    event (parented on whatever delivery or suspicion is currently
    being handled), payloads travel wrapped with their [Send]'s
    sequence id so each [Deliver] names its exact causal parent even
    under loss, duplication and reordering, fault injections record
    [Crash] events, and {!on_crash_notification} parents each
    [Suspect] on the [Crash] it detects.  Handlers run with the log's
    cursor ({!Cliffedge_obs.Log.context}) on their [Deliver] or
    [Suspect] event, restored afterwards even when the handler raises,
    which is what threads causality into the protocol layer without
    touching handler signatures. *)

open Cliffedge_graph

type 'a envelope
(** One wire unit: a non-empty batch of payloads, each wrapped with the
    sequence id of its own [Send] event. *)

type 'a conduit =
  | Direct of 'a envelope Cliffedge_net.Network.t
  | Arq of 'a envelope Cliffedge_net.Transport.t

type 'a batch_cell
(** Accumulator of an open {!batched} scope (internal). *)

type 'a t = {
  engine : Cliffedge_sim.Engine.t;
  conduit : 'a conduit;
  detector : Failure_detector.t;
  obs : Cliffedge_obs.Log.t;
  crashed : int Node_id.Tbl.t;
      (** the run's one crash record, each crashed node's [Crash] event
          seq: written by {!schedule_crashes} only, read by the network,
          the ARQ, the detector, the runners and [Suspect] parenting *)
  mutable batch : 'a batch_cell list option;
  geometry : Cliffedge_graph.Incr_geometry.t option;
  mutable crash_hook : Node_id.t -> unit;
}

val create :
  ?channel:Cliffedge_net.Transport.channel ->
  ?geometry:Cliffedge_graph.Incr_geometry.t ->
  seed:int ->
  message_latency:Cliffedge_net.Latency.t ->
  detection_latency:Cliffedge_net.Latency.t ->
  channel_consistent_fd:bool ->
  unit ->
  'a t
(** Builds the engine, channel and detector with independent PRNG
    streams derived from [seed].  [channel] defaults to [Reliable],
    which is bit-identical (PRNG stream included) to the pre-fault
    substrate.  When [channel_consistent_fd] is set, the detector's
    flush floor is taken from the conduit — over ARQ that floor
    accounts for pending retransmissions ({!Cliffedge_net.Transport.flush_time}).
    When [geometry] is supplied, each scheduled crash also feeds the
    incremental fault-geometry tracker, inside the same injection thunk
    that writes the crash record. *)

val send : 'a t -> ?units:int -> src:Node_id.t -> dst:Node_id.t -> 'a -> unit
(** Records a [Send] event and hands the wrapped payload to the
    conduit; a no-op (and no event) when [src] has crashed.  Inside a
    {!batched} scope the payload is instead accumulated onto the
    scope's per-[(src, dst)] envelope. *)

val batched : 'a t -> (unit -> 'b) -> 'b
(** [batched t f] runs [f] with send-batching on: every {!send} during
    [f] still records its own [Send] event, but payloads to the same
    [(src, dst)] pair are piggybacked onto a single envelope — one
    latency draw and (over ARQ) one frame per pair — flushed when [f]
    returns, in first-touch order.  Nested scopes merge into the
    outermost one.  Runners wrap each protocol-step's action execution
    in a scope, so a round's worth of opinions to a neighbour travels
    as one wire message. *)

val on_deliver : 'a t -> (src:Node_id.t -> dst:Node_id.t -> 'a -> unit) -> unit
(** Installs the upward handler.  Each logical payload in a delivered
    envelope records its own [Deliver] event parented on the matching
    [Send], and the handler runs once per payload with the log's
    context cursor set to that event — batching is invisible to the
    causal log's structure. *)

val on_crash_notification :
  'a t -> (observer:Node_id.t -> crashed:Node_id.t -> unit) -> unit
(** Like {!Failure_detector.on_crash_notification}, additionally
    recording a [Suspect] event parented on the [Crash] it detects
    (no parent for injected false suspicions) and running the handler
    under that event's context. *)

val before_crash : 'a t -> (Node_id.t -> unit) -> unit
(** Installs a handler that runs first in each crash-injection thunk of
    {!schedule_crashes}, before the [Crash] event is recorded and before
    the crash record, the detector and the geometry learn of the crash: the
    last instant at which the node and its neighbours can still act on
    a world where it is alive.  The runner activates them here.  Default:
    nothing. *)

val stats : 'a t -> Cliffedge_net.Stats.t

val is_crashed : 'a t -> Node_id.t -> bool
(** Whether the node is in the crash record. *)

val crashed_nodes : 'a t -> Node_set.t
(** The crash record's nodes, built afresh: an end-of-run read. *)

val schedule_crashes : 'a t -> (float * Node_id.t) list -> unit
(** Schedules each fault injection: at its time the {!before_crash}
    handler runs, a [Crash] event is recorded, the node enters the crash
    record (its sends ignored, deliveries to it dropped), its ARQ timers
    are killed, and the detector notifies its subscribers.
    @raise Invalid_argument naming a node the schedule names twice. *)

val run : max_events:int -> 'a t -> unit
(** Runs the engine to quiescence or the event cap. *)
