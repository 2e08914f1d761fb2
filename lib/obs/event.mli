(** Causal trace events.

    One event per observable step of a run: fault injections, failure
    detections, substrate sends/deliveries, ARQ retransmissions and
    stalls, and the protocol-level breadcrumbs (proposal, round
    advance, rejection, abort, early outcome, decision).  Every event
    carries a monotone sequence id, the acting node, an optional
    consensus instance (the proposed view itself) and an optional
    causal parent:

    - [Send.parent] is the event that triggered the send (the delivery
      or suspicion being handled);
    - [Deliver.parent] is the matching [Send] (threaded through the
      substrate envelope, so it is exact even under loss, duplication
      and reordering);
    - [Suspect.parent] is the [Crash] of the suspected node (absent
      for injected false suspicions);
    - [Propose.parent] is the triggering delivery or suspicion;
    - [Round.parent] is the previous [Round] (or the [Propose]);
    - [Decide]/[Abort]/[Early_outcome] parent to the last round-chain
      event of their instance.

    Parents always precede their children in sequence order
    ({!Log.record} enforces it). *)

open Cliffedge_graph

type kind =
  | Crash  (** the node crashed (fault-schedule ground truth) *)
  | Suspect of { target : Node_id.t }
      (** failure-detector notification delivered to [node] *)
  | Send of { dst : Node_id.t; units : int }  (** substrate-level send *)
  | Deliver of { src : Node_id.t }  (** payload delivered to [node] *)
  | Retransmit of { dst : Node_id.t; attempt : int; frames : int }
      (** ARQ timer expiry: the whole unacked window went out again *)
  | Stall of { dst : Node_id.t }  (** ARQ gave up on the channel *)
  | Propose  (** consensus instance started on [instance] *)
  | Reject  (** [node] rejected the [instance] view *)
  | Round of { round : int }  (** instance advanced to [round] *)
  | Abort  (** instance completed non-unanimous *)
  | Early_outcome of { success : bool }  (** footnote-6 closing broadcast *)
  | Decide  (** the decide event of [instance] *)

type t = {
  seq : int;  (** monotone id, dense from 0, unique within a run *)
  time : float;  (** virtual engine time *)
  node : Node_id.t;  (** the acting node *)
  instance : Node_set.t option;
      (** the consensus instance: the view proposed, rejected or decided
          on; rendered as its {!instance_of_view} label only on
          output *)
  parent : int option;  (** causal parent's [seq]; always [< seq] *)
  kind : kind;
}

val kind_name : kind -> string
(** Stable lowercase tag, used for CLI filtering and the exporters. *)

val kind_names : string list
(** Every tag {!kind_name} can produce, for CLI validation. *)

val category : kind -> string
(** Coarse grouping for the Chrome exporter: [net], [fd] or
    [protocol]. *)

val instance_of_view : Node_set.t -> string
(** Label of a proposed view: member ids joined with ['.'] in
    increasing order (e.g. ["3.4"]), shell-safe for
    [cliffedge trace --instance].  Built by the renderers ({!pp},
    {!Export}), never while a run records. *)

val pp_kind : Format.formatter -> kind -> unit

val pp : Format.formatter -> t -> unit
(** One line: [#<seq> t=<time, full precision> <node> <kind> [<instance>]
    <- #<parent>]. *)
