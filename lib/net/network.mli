(** Simulated asynchronous reliable FIFO point-to-point network.

    Implements exactly the channel assumptions of §2.2 of the paper:
    any two nodes can exchange messages over asynchronous, reliable,
    FIFO channels.  Per ordered pair, delivery order equals send order
    even when the latency model draws out-of-order delays (a later send
    is never delivered before an earlier one).  Messages to a node that
    has crashed by delivery time are dropped; messages already sent by a
    node that subsequently crashes are still delivered, as in the
    asynchronous model.

    The FIFO guarantee is load-bearing for the protocol: Lemma 3 of the
    paper (agreement on final opinion vectors) relies on a node's accept
    preceding its reject on every channel.

    Passing a {!Faults.t} plan to {!create} turns the network into a
    {e raw faulty} channel instead: messages may be lost (probabilistic
    drop or an active link cut, both decided at send time), duplicated
    (the extra copy is exempt from the FIFO floor), or reordered up to
    the plan's bound.  The ARQ layer ({!Transport}) rebuilds the
    reliable-FIFO contract on top of such a network. *)

open Cliffedge_graph

type 'a t
(** A network carrying payloads of type ['a]. *)

exception No_handler of string
(** A delivery fired before {!on_deliver} installed a handler — a
    harness wiring bug.  Also raised by {!Transport.on_deliver}'s layer
    under the same condition. *)

val create :
  ?faults:Faults.t ->
  engine:Cliffedge_sim.Engine.t ->
  rng:Cliffedge_prng.Prng.t ->
  latency:Latency.t ->
  unit ->
  'a t
(** [faults] (default: none) subjects every message to the given fault
    plan.  A pass-through plan ({!Faults.is_pass_through}) is treated as
    absent, taking a code path bit-identical to the reliable network —
    same PRNG stream, same schedule. *)

val on_deliver : 'a t -> (src:Node_id.t -> dst:Node_id.t -> 'a -> unit) -> unit
(** Installs the delivery handler (typically the runner's dispatch into
    protocol nodes).  Must be installed before the first delivery
    fires. *)

val send : 'a t -> ?units:int -> src:Node_id.t -> dst:Node_id.t -> 'a -> unit
(** Enqueues a message.  [units] is an abstract payload size for
    accounting (default 1).  Sends from crashed nodes are ignored
    (crashed nodes cannot act); sends to crashed nodes are dropped at
    delivery time. *)

val crash : 'a t -> Node_id.t -> unit
(** Marks a node as crashed from the current virtual time on. *)

val flush_time : 'a t -> src:Node_id.t -> dst:Node_id.t -> float
(** Virtual time by which every message currently scheduled on the
    ordered channel [src -> dst] will have been delivered
    ([neg_infinity] when nothing was ever scheduled; messages lost to a
    fault plan never schedule and do not move this floor).  The
    channel-consistent failure detector uses this floor so that a crash
    notification never overtakes the crashed node's in-flight messages —
    see {!Cliffedge_detector.Failure_detector}. *)

val is_crashed : 'a t -> Node_id.t -> bool

val stats : 'a t -> Stats.t
