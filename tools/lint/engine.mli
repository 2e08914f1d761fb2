(** Parse, run the registry under the policy table, suppress, sort. *)

val registry : Rule.t list

val known_rule_ids : string list
(** Every rule id in the registry plus the unused-allow meta rule. *)

(** Which rules to run: [All] (the default, and the root @lint gate)
    runs both passes; the cram fixtures isolate one pass, and bench/e2e's
    own gate runs [Syntactic_only]. *)
type analysis_filter = Syntactic_only | Flow_only | All

exception Parse_error of string

val load_file : component:string -> string -> Rule.source_file
(** @raise Parse_error on unparseable input, with [file:line:col] of
    the offending token in the message. *)

type result = {
  diagnostics : Diagnostic.t list;
  rules_run : int;
      (** registry rules that ran, plus the unused-allow pass *)
  total_ms : float;  (** processor milliseconds ([Sys.time]) of the run *)
}

val run :
  ?analysis:analysis_filter -> ?only:string -> Rule.source_file list -> result
(** [only] restricts the registry to a single rule id (fixture
    isolation); suppression spans naming rules that did not run are not
    flagged as unused. *)
