(** Verification of the specification (CD1–CD7, §2.3).

    Each property is one predicate over a small summary of a run.
    {!at_decision} checks CD1, CD2 and CD5 for a new decision against
    the ones before it, {!at_end} checks CD3, CD4, CD6 and CD7.
    {!check} runs both over a simulated run's outcome; the model checker
    ({!Cliffedge_mcheck.Explorer}) runs them over every explored
    schedule, at each decision and at each quiescent leaf.

    Safety properties (CD1, CD2, CD3, CD5, CD6) are checked on any run;
    the liveness properties (CD4, CD7) additionally require the run to
    have gone quiescent — on a non-quiescent run (event-cap hit) they
    are reported as unverifiable violations rather than silently
    skipped. *)

open Cliffedge_graph

type property =
  | CD1_integrity
  | CD2_view_accuracy
  | CD3_locality
  | CD4_border_termination
  | CD5_uniform_border_agreement
  | CD6_view_convergence
  | CD7_progress

val property_name : property -> string

type violation = {
  property : property;
  description : string;
  events : int list;
      (** sequence ids of the causal-log events witnessing the
          violation (decision events, the first offending send for
          CD3, crash injections and ARQ stalls for CD7); empty when
          the summary's log has no entries for them, e.g. outcomes
          fabricated outside the runner, or explored schedules *)
}

type report = {
  violations : violation list;  (** by property, CD1 first *)
  geometry : Fault_geometry.t;  (** ground-truth fault geometry *)
  decisions_checked : int;
  pairs_checked : int;  (** communicating pairs examined for CD3 *)
}

val ok : report -> bool

type 'v decisions
(** A run's decisions so far, indexed by deciding node and by the nodes
    on each decided view's border: the checks never scan them. *)

val no_decisions : 'v decisions

val decision_list : 'v decisions -> 'v Runner.decision list
(** Latest first. *)

val crash_times : (float * Node_id.t) list -> float Node_map.t
(** Each node's earliest time in a crash schedule. *)

type 'v summary = {
  graph : Graph.t;
  crash_time : float Node_map.t;  (** the crash schedule, by {!crash_times} *)
  decisions : 'v decisions;  (** for {!at_decision}, those before the new one *)
  crashed : Node_set.t;
  pairs : (Node_id.t * Node_id.t) list Lazy.t;  (** ordered pairs that communicated *)
  quiescent : bool;
  geometry : Fault_geometry.t Lazy.t;  (** of [crashed] *)
  obs : Cliffedge_obs.Log.t;  (** the causal log violations cite *)
}

val at_decision :
  value_equal:('v -> 'v -> bool) -> 'v summary -> 'v Runner.decision ->
  violation list * 'v decisions
(** CD1 (its decider's first), CD2 (a region of nodes crashed by its
    [time], its decider on the border) and CD5 (agreement with each
    decision on its border, and each it is on the border of) for a new
    decision; and [summary.decisions] with it added.  Reads the graph,
    the crash schedule and the decisions only. *)

val at_end : 'v summary -> violation list
(** CD3, CD4, CD6 and CD7 over the whole run; the only reader of
    [pairs] and [geometry]. *)

val check : ?value_equal:('v -> 'v -> bool) -> 'v Runner.outcome -> report
(** Verifies all seven properties of a simulated run.  [value_equal]
    (default structural equality) compares decision values for CD5. *)

val pp_report : Format.formatter -> report -> unit
