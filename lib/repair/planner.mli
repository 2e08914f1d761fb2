(** Repair planners: from an agreed crashed region to a repair plan.

    A planner plays [selectValueForView] (Algorithm 1, line 14): every
    border node, given the view it proposes, computes a candidate plan;
    the consensus instance then picks one deterministic winner that the
    whole border executes.  Planners must be deterministic in
    [(graph, view)] so that all border nodes of a decided view could
    even skip the value exchange — but they are allowed to depend on the
    proposer too (the default [pick] selects the smallest proposer's
    plan). *)

open Cliffedge_graph

type strategy =
  | Chain_border
      (** Chain the region's border nodes in identifier order: the
          simplest plan that always reconnects whatever the region cut
          apart, at the price of up to [|B| - 1] new edges, at most two
          of them at any one node.  On a two-node border (a cut ring
          segment) it is the one edge splicing the segment's ends. *)
  | Star_rewire
      (** Re-attach every border node to the smallest border node — a
          hub-style repair creating [|B| - 1] edges with diameter 2. *)

val plan : strategy -> Graph.t -> Cliffedge.View.t -> Plan.t
(** [plan s g view] is the repair for [view] under strategy [s].
    Deterministic in its arguments; returns {!Plan.empty} when the
    border has fewer than two nodes (nothing to reconnect). *)

val propose : strategy -> Graph.t -> Node_id.t -> Cliffedge.View.t -> Plan.t
(** Adapter with the [selectValueForView] signature expected by
    {!Cliffedge.Runner.run}'s [propose_value]. *)

val pp_strategy : Format.formatter -> strategy -> unit
