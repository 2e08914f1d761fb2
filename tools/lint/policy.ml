(* The per-directory policy table: which rule applies to which
   component.  A component is the directory a file lives in (e.g.
   ["lib/core"]), derived per file by [--auto-component] in the root
   @lint gate; fixture runs in the cram suite pick one with
   [--component] to select the rule set under test.

   The README "Static checks" table is GENERATED from this module
   (cliffedge-lint --list-rules --markdown); edit [scope_doc] /
   [exempt_doc] here and regenerate rather than editing the README. *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let in_lib component = has_prefix ~prefix:"lib" component

(* Files inside a component that a rule deliberately skips.  [runner.ml]
   is lib/core's effect boundary (trace printing, log sinks): the
   core-purity rule guards the state machine modules, not the harness
   that drives them.  The send-locality and exception-flow boundary
   analyses skip it for the same reason. *)
let file_exempt ~rule ~component ~basename =
  match (rule, component, basename) with
  | ("core-purity" | "send-locality"), "lib/core", ("runner.ml" | "runner.mli")
    ->
      true
  | _ -> false

let applies ~rule ~component ~basename =
  if file_exempt ~rule ~component ~basename then false
  else
    match rule with
    (* PRNG owns the randomness; the bench harness owns the clock. *)
    | "determinism" ->
        not (String.equal component "lib/prng" || String.equal component "bench")
    (* Protocol values live in lib/; tests and examples may compare
       plainly. *)
    | "no-poly-compare" -> in_lib component
    | "core-purity" -> String.equal component "lib/core"
    | "mli-coverage" -> in_lib component
    | "no-obj-magic" | "unused-allow" -> true
    (* CD1's shadow: the single decision gate lives in lib/core. *)
    | "decide-once" -> String.equal component "lib/core"
    (* CD3's shadow: protocol code may only address border nodes, so
       raw [Node_id.of_int] must not be reachable from protocol.ml. *)
    | "send-locality" -> String.equal component "lib/core"
    (* The codec's decoder and the net's fault/ARQ paths both turn
       swallowed exceptions into silent frame loss. *)
    | "exception-flow" ->
        String.equal component "lib/codec" || String.equal component "lib/net"
    (* Everything under lib/ must draw entropy through lib/prng. *)
    | "nondet-taint" -> in_lib component && not (String.equal component "lib/prng")
    | _ -> true

(* ------------------------------------------------------------------ *)
(* Documentation strings for the generated README table.               *)

let scope_doc = function
  | "determinism" -> "all but `lib/prng`, `bench`"
  | "no-poly-compare" -> "`lib/**`"
  | "core-purity" -> "`lib/core`"
  | "mli-coverage" -> "`lib/**`"
  | "no-obj-magic" | "unused-allow" -> "everywhere"
  | "decide-once" | "send-locality" -> "`lib/core`"
  | "exception-flow" -> "`lib/codec`, `lib/net`"
  | "nondet-taint" -> "`lib/**` but `lib/prng`"
  | _ -> "everywhere"

let exempt_doc = function
  | "core-purity" | "send-locality" -> "`runner.ml(i)`"
  | _ -> "—"
