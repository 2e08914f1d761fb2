(** Post-hoc verification of the specification (CD1–CD7, §2.3).

    Given a finished run, the checker validates every property of the
    convergent detection of crashed regions against the ground truth of
    the fault-injection schedule.  Safety properties (CD1, CD2, CD3,
    CD5, CD6) are checked on any run; the liveness properties (CD4,
    CD7) additionally require the run to have gone quiescent — on a
    non-quiescent run (event-cap hit) they are reported as unverifiable
    violations rather than silently skipped. *)

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
          the outcome carries no log entries for them, e.g. outcomes
          fabricated outside the runner *)
}

type report = {
  violations : violation list;
  geometry : Fault_geometry.t;  (** ground-truth fault geometry *)
  decisions_checked : int;
  pairs_checked : int;  (** communicating pairs examined for CD3 *)
}

val ok : report -> bool

val check : ?value_equal:('v -> 'v -> bool) -> 'v Runner.outcome -> report
(** Verifies all seven properties.  [value_equal] (default structural
    equality) compares decision values for CD5. *)

val pp_report : Format.formatter -> report -> unit
