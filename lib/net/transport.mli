(** ARQ reliable transport: re-earning the paper's channel assumptions.

    The paper simply {e assumes} asynchronous reliable FIFO channels
    (§2.2).  {!Network} grants them by construction; under a
    {!Faults.t} plan it deliberately does not.  This module rebuilds
    the contract on top of a raw faulty network with a classic
    go-back-N automatic-repeat-request scheme, per ordered node pair:

    - every payload is framed with a sequence number;
    - the receiver acknowledges cumulatively, buffers out-of-order
      frames, discards duplicates ({!Stats.record_dedup}) and releases
      payloads upward exactly once, in send order;
    - the sender retransmits every unacknowledged frame when a
      retransmission timer (exponential backoff, capped) expires, and
      counts each copy via {!Stats.record_retransmit}.

    All timers run on the simulation engine, so an ARQ run is as
    seed-deterministic as a reliable one.

    Under a {e permanent} partition no retry count is safe; after
    [max_retries] consecutive fruitless timeouts the sender gives up on
    that ordered channel and records a [Stall] event in the causal log
    rather than looping forever — the paper's liveness properties are
    conditional on channels eventually delivering, and a stall is the
    diagnostic that this precondition was violated. *)

open Cliffedge_graph

type policy = {
  rto : float;  (** initial retransmission timeout (virtual ms) *)
  backoff : float;  (** timeout multiplier after each fruitless expiry *)
  rto_cap : float;  (** upper bound on the backed-off timeout *)
  max_retries : int;
      (** consecutive fruitless timeouts before the channel is declared
          {e stalled} *)
}

val default_policy : policy
(** [{ rto = 25.; backoff = 2.; rto_cap = 200.; max_retries = 30 }] —
    an initial timeout a few multiples of the default mean latency, and
    enough retries that even a 50% loss rate stalls a channel with
    probability ~2{^-31}. *)

type channel =
  | Reliable  (** the paper's assumption, granted by construction *)
  | Raw_faulty of Faults.t
      (** faulty network, no repair: the protocol sees loss,
          duplication and reordering directly *)
  | Arq_over_faulty of Faults.t * policy
      (** faulty network with this ARQ transport repairing it *)

(** How a runner asks for its channel semantics; see
    {!Cliffedge_detector.Substrate}. *)

type 'a frame
(** Wire format carried by the underlying network: data or ack. *)

type 'a t

val create :
  ?policy:policy ->
  obs:Cliffedge_obs.Log.t ->
  engine:Cliffedge_sim.Engine.t ->
  network:'a frame Network.t ->
  unit ->
  'a t
(** Wraps [network], installing its delivery handler (the transport
    owns the network's [on_deliver] slot).  Retransmission timers are
    scheduled on [engine], which must be the network's engine.  Every
    go-back-N window retransmission records a [Retransmit] event in
    [obs], and every channel give-up a [Stall] event: the log is the
    only record of which channels stalled. *)

val on_deliver : 'a t -> (src:Node_id.t -> dst:Node_id.t -> 'a -> unit) -> unit
(** Installs the upward delivery handler.  Per ordered pair, payloads
    arrive exactly once and in send order. *)

val send : 'a t -> ?units:int -> src:Node_id.t -> dst:Node_id.t -> 'a -> unit

val crash : 'a t -> Node_id.t -> unit
(** Kills the retransmission timers of a node that has just entered the
    network's crash record ({!Network.create}), walking only that node's
    own channels: a crashed sender retransmits nothing, so its channels
    quiesce with whatever frames are already in flight. *)

val flush_time : 'a t -> src:Node_id.t -> dst:Node_id.t -> float
(** Floor for the channel-consistent failure detector.  While [src] is
    alive and holds unacknowledged frames the channel cannot be
    flushed ([infinity] — retransmissions may still be scheduled); the
    detector only ever queries channels of an already-crashed [src]
    (see {!Cliffedge_detector.Substrate.create}), for which the floor
    collapses to the underlying {!Network.flush_time}: no retransmit
    can occur, and buffered out-of-order frames only release at an
    underlying delivery event, which that floor already bounds. *)

val stats : 'a t -> Stats.t
(** The underlying network's counters; retransmissions and dedups are
    recorded there too. *)
