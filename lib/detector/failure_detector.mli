(** Perfect failure detector (§3.1 of the paper).

    A subscription-based oracle: a node [p] monitors a set of nodes and
    receives one [crash q] notification per monitored node [q] that
    crashes.  The implementation is driven by the fault-injection
    schedule, so the two defining properties hold by construction:

    - {e strong accuracy}: a notification is only ever issued for a node
      that has crashed, and only to a node that subscribed to it;
    - {e strong completeness}: if [q] crashes and [p] subscribed (before
      or after the crash), [p] eventually receives the notification —
      unless [p] itself crashes first.

    Detection latency is drawn from a {!Cliffedge_net.Latency.t} model
    per (observer, target) subscription; staggering those draws is what
    reproduces the divergent-view races of Fig. 1(b).

    {2 Channel consistency}

    The paper's correctness proof implicitly requires a property beyond
    strong accuracy and completeness: a [crash q] notification delivered
    to [p] must not overtake messages [q] sent to [p] before crashing.
    Without it, a border node can be excused from a round while its
    accept is still in flight, and the "cascading crashes" case of the
    paper's Lemma 3 breaks — our randomized checker found runs where a
    node decides a view, crashes, and a surviving border node of that
    view later decides a different (grown) view, violating CD5 (uniform
    border agreement).  See DESIGN.md §7 and experiment X9.

    Passing [channel_floor] makes the detector {e channel-consistent}:
    each notification is additionally delayed past the flush time of the
    crashed node's channel to the observer (the runner wires this to
    {!Cliffedge_net.Network.flush_time}).  Omitting it gives the {e raw}
    detector, which exhibits the paper's anomaly. *)

open Cliffedge_graph

type t

val create :
  engine:Cliffedge_sim.Engine.t ->
  rng:Cliffedge_prng.Prng.t ->
  latency:Cliffedge_net.Latency.t ->
  ?channel_floor:(observer:Node_id.t -> crashed:Node_id.t -> float) ->
  unit ->
  t

val on_crash_notification :
  t -> (observer:Node_id.t -> crashed:Node_id.t -> unit) -> unit
(** Installs the notification sink (the runner's dispatch).  Fired at
    most once per (observer, crashed) pair; never fired for an observer
    that has itself crashed by notification time. *)

val monitor : t -> observer:Node_id.t -> targets:Node_set.t -> unit
(** The paper's [monitorCrash] event.  Subscribing to an
    already-crashed target schedules its notification immediately (plus
    detection latency).  Self-subscriptions and duplicates are
    ignored. *)

val inject_crash : t -> Node_id.t -> unit
(** Fault injection: the node crashes at the current virtual time.
    All current subscribers are scheduled for notification. *)

val inject_false_suspicion : t -> observer:Node_id.t -> target:Node_id.t -> unit
(** Deliberately violates strong accuracy: delivers a [crash target]
    notification to [observer] although [target] is alive (no-op when
    [target] has actually crashed, when [observer] never subscribed to
    it, or when the pair was already notified).  Exists only for the
    assumption-necessity ablation (experiment X13): the paper's
    correctness argument requires a {e perfect} detector, and this is
    how the reproduction shows what breaks without one. *)

val is_crashed : t -> Node_id.t -> bool

val crashed_nodes : t -> Node_set.t
