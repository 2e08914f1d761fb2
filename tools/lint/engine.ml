(* Parses the batch, runs the registry under the policy table, applies
   suppression spans and returns the surviving diagnostics in report
   order, plus the wall-time the budget reads.

   Two passes share the registry: the per-file [Syntactic] rules and the
   interprocedural [Flow] rules, which see the whole batch (so the call
   graph is complete when the batch spans every component, as in the
   root @lint gate).  [--analysis all] — the default — runs both. *)

let registry : Rule.t list =
  [
    Rules_determinism.rule;
    Rules_poly_compare.rule;
    Rules_purity.rule;
    Rules_hygiene.obj_magic;
    Rules_hygiene.mli_coverage;
    Rules_decide_once.rule;
    Rules_send_locality.rule;
    Rules_exn_flow.rule;
    Rules_taint.rule;
  ]

(* The meta rule is not in the registry (it runs inside the allow pass)
   but belongs to the rule universe for --list-rules and suppression
   validation. *)
let known_rule_ids = List.map (fun (r : Rule.t) -> r.id) registry @ [ "unused-allow" ]

type analysis_filter = Syntactic_only | Flow_only | All

let analysis_matches filter (rule : Rule.t) =
  match (filter, rule.analysis) with
  | All, _ -> true
  | Syntactic_only, Rule.Syntactic -> true
  | Flow_only, Rule.Flow -> true
  | Syntactic_only, Rule.Flow | Flow_only, Rule.Syntactic -> false

exception Parse_error of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_file ~component path : Rule.source_file =
  let basename = Filename.basename path in
  let rel =
    if String.equal component "." then basename
    else component ^ "/" ^ basename
  in
  let source = read_file path in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf rel;
  let ast =
    try
      if Filename.check_suffix path ".mli" then
        Rule.Intf (Ppxlib.Parse.interface lexbuf)
      else Rule.Impl (Ppxlib.Parse.implementation lexbuf)
    with exn ->
      (* The lexbuf stops where the parser gave up: report that position
         so the user lands on the offending token, not just the file. *)
      let p = lexbuf.Lexing.lex_curr_p in
      raise
        (Parse_error
           (Printf.sprintf "%s:%d:%d: %s" rel p.Lexing.pos_lnum
              (p.Lexing.pos_cnum - p.Lexing.pos_bol)
              (Printexc.to_string exn)))
  in
  { path; rel; component; basename; ast; source_len = String.length source }

type result = {
  diagnostics : Diagnostic.t list;
  rules_run : int;
  total_ms : float;
}

let run ?(analysis = All) ?only (files : Rule.source_file list) : result =
  let t_start = Sys.time () in
  let selected =
    List.filter
      (fun (r : Rule.t) ->
        analysis_matches analysis r
        && match only with None -> true | Some id -> String.equal id r.id)
      registry
  in
  let raw =
    List.concat_map
      (fun (rule : Rule.t) ->
        let eligible =
          List.filter
            (fun (f : Rule.source_file) ->
              Policy.applies ~rule:rule.id ~component:f.component
                ~basename:f.basename)
            files
        in
        match rule.check with
        | Rule.Per_file check -> check eligible
        | Rule.Whole_batch check -> check ~batch:files ~eligible)
      selected
  in
  let active = List.map (fun (r : Rule.t) -> r.id) selected @ [ "unused-allow" ] in
  let surviving =
    List.concat_map
      (fun (f : Rule.source_file) ->
        let spans = Allow.collect f in
        let own =
          List.filter (fun (d : Diagnostic.t) -> String.equal d.file f.rel) raw
        in
        (* [filter] must run first: it marks the spans that fired, and
           [unused_diagnostics] reports the ones that did not. *)
        let kept = Allow.filter spans own in
        kept
        @ Allow.unused_diagnostics ~file:f.rel ~active ~known:known_rule_ids
            spans)
      files
  in
  {
    diagnostics = List.sort_uniq Diagnostic.compare surviving;
    rules_run = List.length active;
    total_ms = (Sys.time () -. t_start) *. 1000.;
  }
