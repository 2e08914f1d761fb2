(* cliffedge-lint: the repo's static invariant gate.

   Usage: cliffedge-lint [--component DIR | --auto-component]
                         [--analysis syntactic|flow|all] [--only RULE]
                         [--budget-ms N] [--verbose]
                         [--list-rules [--markdown]] FILE...

   Parses the given .ml/.mli files with ppxlib, runs the rule registry
   under the per-directory policy table, prints compiler-style
   diagnostics plus a per-rule summary table, and exits 1 when
   violations remain (or the time budget is blown).  The root dune
   stanza is the @lint alias: one run of every rule over the whole tree,
   so the interprocedural rules see a complete call graph.  @runtest
   depends on @lint. *)

open Cliffedge_lint

let usage = "cliffedge-lint [--component DIR] FILE..."

let registry_rows () =
  List.map
    (fun (r : Rule.t) ->
      ( r.id,
        (match r.analysis with
        | Rule.Syntactic -> "syntactic"
        | Rule.Flow -> "flow"),
        r.doc ))
    Engine.registry
  @ [
      ( "unused-allow",
        "meta",
        "every [@lint.allow] annotation must suppress something" );
    ]

let print_rules ~markdown =
  if markdown then begin
    print_endline "| rule | pass | scope | exempt files | description |";
    print_endline "|---|---|---|---|---|";
    List.iter
      (fun (id, pass, doc) ->
        Printf.printf "| `%s` | %s | %s | %s | %s |\n" id pass
          (Policy.scope_doc id) (Policy.exempt_doc id) doc)
      (registry_rows ())
  end
  else
    List.iter
      (fun (id, _, doc) -> Printf.printf "%-20s %s\n" id doc)
      (registry_rows ())

let () =
  let component = ref "." in
  let auto_component = ref false in
  let analysis = ref Engine.All in
  let only = ref None in
  let budget_ms = ref 0 in
  let verbose = ref false in
  let list_rules = ref false in
  let markdown = ref false in
  let files = ref [] in
  let set_analysis = function
    | "syntactic" -> analysis := Engine.Syntactic_only
    | "flow" -> analysis := Engine.Flow_only
    | "all" -> analysis := Engine.All
    | other ->
        raise (Arg.Bad (Printf.sprintf "unknown analysis %S" other))
  in
  let spec =
    [
      ( "--component",
        Arg.Set_string component,
        "DIR policy key for the files (e.g. lib/core); default \".\"" );
      ( "--auto-component",
        Arg.Set auto_component,
        " derive each file's policy key from its directory" );
      ( "--analysis",
        Arg.String set_analysis,
        "PASS run only 'syntactic' or 'flow' rules (default: all)" );
      ( "--only",
        Arg.String (fun id -> only := Some id),
        "RULE run a single rule (fixture isolation)" );
      ( "--budget-ms",
        Arg.Set_int budget_ms,
        "N fail when the analysis takes longer than N ms" );
      ("--verbose", Arg.Set verbose, " report clean runs too");
      ("--list-rules", Arg.Set list_rules, " print the rule registry and exit");
      ( "--markdown",
        Arg.Set markdown,
        " with --list-rules: print the README table" );
    ]
  in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  if !list_rules then begin
    print_rules ~markdown:!markdown;
    exit 0
  end;
  (match !only with
  | Some id when not (List.exists (String.equal id) Engine.known_rule_ids) ->
      Printf.eprintf "cliffedge-lint: unknown rule %S; see --list-rules\n" id;
      exit 2
  | _ -> ());
  let paths = List.rev !files in
  if paths = [] then begin
    prerr_endline ("cliffedge-lint: no input files\nusage: " ^ usage);
    exit 2
  end;
  let component_of path =
    if !auto_component then
      match Filename.dirname path with "" -> "." | d -> d
    else !component
  in
  let loaded =
    try List.map (fun p -> Engine.load_file ~component:(component_of p) p) paths
    with Engine.Parse_error msg ->
      prerr_endline ("cliffedge-lint: parse error: " ^ msg);
      exit 2
  in
  let result = Engine.run ~analysis:!analysis ?only:!only loaded in
  let diags = result.Engine.diagnostics in
  let budget_blown = !budget_ms > 0 && result.Engine.total_ms > float_of_int !budget_ms in
  if budget_blown then
    Printf.eprintf
      "cliffedge-lint: analysis took %.0f ms, over the %d ms budget\n"
      result.Engine.total_ms !budget_ms;
  (match diags with
  | [] ->
      if !verbose then
        Printf.printf "cliffedge-lint: clean (%d file(s), %d rule(s))\n"
          (List.length loaded) result.Engine.rules_run
  | _ :: _ ->
      List.iter (fun d -> print_endline (Diagnostic.to_string d)) diags;
      print_newline ();
      let table =
        Cliffedge_report.Table.create ~title:"cliffedge-lint summary"
          ~columns:[ "rule"; "violations" ]
      in
      let counts = Hashtbl.create 8 in
      List.iter
        (fun (d : Diagnostic.t) ->
          let n = try Hashtbl.find counts d.rule with Not_found -> 0 in
          Hashtbl.replace counts d.rule (n + 1))
        diags;
      Hashtbl.fold (fun rule n acc -> (rule, n) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (rule, n) ->
             Cliffedge_report.Table.add_row table [ rule; string_of_int n ]);
      print_string (Cliffedge_report.Table.render table);
      Printf.printf "cliffedge-lint: %d violation(s) in %d file(s)\n"
        (List.length diags) (List.length loaded));
  if diags <> [] || budget_blown then exit 1
