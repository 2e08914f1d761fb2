(** Exhaustive small-scope model checking of the protocol.

    Where the simulator samples schedules (one per seed), the explorer
    enumerates {e every} schedule of a small configuration: all
    interleavings of message deliveries (FIFO per ordered channel),
    failure-detector notifications and crash injections.  States are
    deduplicated through {!Cliffedge.Protocol.fingerprint}, so the
    search is over the reachable state graph rather than the (much
    larger) tree of schedules.

    The explorer runs its own property checks; it does not call
    {!Cliffedge.Checker}.  CD1, CD2 and CD5 are checked at every
    decision.  The locality envelope CD3 (over every message sent), CD6
    among correct deciders and the liveness properties CD4 and CD7 are
    checked at quiescent leaves, where no move is enabled.

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
