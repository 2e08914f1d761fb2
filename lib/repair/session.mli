(** End-to-end overlay repair sessions.

    One call wires the whole motivating application together: inject the
    crashes, let every border run cliff-edge consensus with a repair
    planner as [selectValueForView], collect the agreed plans (one per
    decided region, by CD5), apply them to the surviving overlay and
    verify it is whole again. *)

open Cliffedge_graph

type outcome = {
  runner : Plan.t Cliffedge.Runner.outcome;  (** the underlying protocol run *)
  report : Cliffedge.Checker.report;  (** CD1–CD7 verification *)
  plans : (Cliffedge.View.t * Plan.t) list;  (** one agreed plan per decided region *)
  healed_overlay : Graph.t;  (** survivors plus applied plan edges *)
  healed : bool;  (** surviving overlay connected after repair *)
}

val repair :
  ?options:Cliffedge.Runner.options ->
  ?strategy:Planner.strategy ->
  graph:Graph.t ->
  crashes:(float * Node_id.t) list ->
  unit ->
  outcome
(** Runs a full repair session.  Default strategy:
    {!Planner.Chain_border}, which heals any single-region cut.
    [healed] can legitimately be [false]: when several regions crash and
    some agreement is still blocked by arbitration (the CD7 weakness),
    or when a region's decided view grew after other plans were already
    applied — the flag reports it instead of pretending. *)

val pp : Format.formatter -> outcome -> unit
