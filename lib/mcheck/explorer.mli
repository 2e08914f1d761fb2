(** Exhaustive small-scope model checking of the protocol.

    Where the simulator samples schedules (one per seed), the explorer
    enumerates {e every} schedule of a small configuration: all
    interleavings of message deliveries (FIFO per ordered channel),
    failure-detector notifications and crash injections.  States are
    deduplicated by an int fingerprint, so the search is over the
    reachable state graph rather than the (much larger) tree of
    schedules.  A world keeps each live node's
    {!Cliffedge.Protocol.fingerprint} beside its state and each queued
    message beside its hash, taken once when it is sent, and carries
    one more int: the wrap-around sum of one tagged, fully mixed hash
    per item (each live node's fingerprint under its id, each channel's
    queue, each subscription, each pending notification and each
    decision).  A move adds the hashes of the items it creates and
    subtracts those it removes, so it hashes what it changed, and the
    world's fingerprint mixes that sum with the crashed set, the
    pending crashes and the loss budgets.  Counterexample traces are
    kept as moves and rendered only for the violations reported.

    Moves at different nodes commute, so one node step recurs in every
    interleaving that reaches it.  {!Cliffedge.Protocol.handle} is a
    pure function of the config, the state and the event, so a call
    keeps each step's next state, fingerprint and actions and reuses
    them when the same physical state meets the same event again (for a
    delivery: the same sender and the same physical message).  The
    cache lives for one [explore] call.

    The properties are {!Cliffedge.Checker}'s.  At each [Decide] action
    the explorer hands the new decision to
    {!Cliffedge.Checker.at_decision} (CD1, CD2, CD5); at each quiescent
    leaf, where no move is enabled, it hands the whole schedule to
    {!Cliffedge.Checker.at_end} (CD3, CD4, CD6, CD7).

    The detector semantics is a parameter, mirroring the finding of
    DESIGN.md §7:

    - [`Channel_consistent]: a [crash q] notification to [p] is enabled
      only once the [q -> p] channel has drained — the semantics under
      which the paper's Lemma 3 is sound;
    - [`Raw]: notifications may be delivered at any time after the
      crash, racing in-flight messages — a literal reading of the
      paper's model, under which the explorer {e exhaustively} finds the
      CD5 violations that experiment X9 samples.

    Scope discipline: crashes are injected in schedule order (the
    relative order of crash injections is fixed; everything else is
    fully interleaved).  This is the standard partial-order reduction
    for fault injection and does not hide message/detector races. *)

open Cliffedge_graph

type fd_semantics = [ `Channel_consistent | `Raw ]

type loss_budget = { max_drops : int; max_dups : int }

type channel_scope = [ `Reliable_fifo | `Lossy of loss_budget ]
(** Channel semantics for the enumeration.  [`Reliable_fifo] (the
    paper's assumption) delivers every queued message in order.
    [`Lossy] adds adversary moves that discard or duplicate the head of
    any channel, bounded by the given budgets (small-scope analogue of a
    {!Cliffedge_net.Faults.t} plan; a duplicate re-enqueues at the tail,
    so it is also reordered).  Under a lossy scope the liveness
    properties CD4/CD7 — and with duplication some safety properties —
    are {e expected} to fail: the enumeration demonstrates that the
    reliable-channel assumption is load-bearing, while the qcheck suite
    shows the ARQ transport restores it. *)

type search_mode =
  | Exhaustive  (** DFS over the whole reachable state graph *)
  | Sample of { walks : int; seed : int }
      (** Monte-Carlo schedule fuzzing: [walks] independent uniformly
          random maximal schedules.  For configurations whose state
          graph is too large to exhaust; unlike the simulator — whose
          schedules are tied to latency draws — the sampler picks any
          enabled move with equal probability, reaching orderings no
          latency model would produce. *)

type violation = {
  property : Cliffedge.Checker.property;
  description : string;
  trace : string list;  (** schedule prefix leading to the violation *)
}

type stats = {
  states_explored : int;  (** distinct configurations visited *)
  transitions : int;  (** moves executed (including into known states) *)
  leaves : int;  (** quiescent configurations reached *)
  violations : violation list;
  truncated : bool;  (** hit [max_states] before exhausting the space *)
  handle_calls : int;
      (** {!Cliffedge.Protocol.handle} calls made: the node steps the
          transition cache had not seen *)
}

val explore :
  ?fd:fd_semantics ->
  ?channel:channel_scope ->
  ?mode:search_mode ->
  ?max_states:int ->
  ?early_stopping:bool ->
  graph:Graph.t ->
  crashes:Node_id.t list ->
  unit ->
  stats
(** [explore ~graph ~crashes ()] checks the configuration in which the
    nodes of [crashes] fail, in that injection order, starting from a
    fully initialized system.  Defaults: [`Channel_consistent],
    [`Reliable_fifo], [Exhaustive], 1_000_000 states, early stopping ON
    (matching {!Cliffedge.Protocol.config}; pass
    [~early_stopping:false] for the base |B|-1-round mode).
    In [Sample] mode, [states_explored] counts distinct configurations
    seen across walks and [leaves] counts walk endpoints.  Violations
    are collected (up to 10) rather than raised. *)

val ok : stats -> bool
(** No violations and not truncated. *)

val pp_stats : Format.formatter -> stats -> unit
