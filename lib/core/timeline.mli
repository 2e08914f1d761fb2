(** Chronological narrative of a run, rendered from its causal log.

    One line per [Crash] event and per protocol breadcrumb (proposal,
    rejection, abort, round advance, early outcome, decision) of the
    outcome's log, in log order — the quickest way to understand why a
    particular schedule produced a particular set of decisions (it is
    how the CD5 anomaly of DESIGN.md §7 was first diagnosed).  Only
    crashes that happened appear: a run stopped by its event cap does
    not narrate the rest of its schedule. *)

open Cliffedge_graph

val pp :
  ?names:Node_id.Names.t ->
  value_to_string:('v -> string) ->
  Format.formatter ->
  'v Runner.outcome ->
  unit
(** One line per event: [t=<time> <node> <event>].  Each [DECIDES]
    line carries the value of the decision whose [event] is that
    [Decide].
    @raise Invalid_argument if the log holds more [Decide] events than
    the outcome has decisions. *)

val decision_latency : 'v Runner.outcome -> (View.t * float) list
(** For each decided view, the delay between the last crash of the view
    and the view's first decision — the "reaction time" series of the
    experiments. *)
