(* domain-safety: code dispatched across domains touches no shared
   mutable state.

   The parallel drivers (Par.map in lib/par) stripe work across
   stdlib [Domain]s with no locks: that is only sound when every
   function a worker can reach confines its mutation to domain-local
   state.  This rule is the static certificate.  It classifies every
   mutable root in the batch and then closes reachability over the
   same-batch call graph:

   - {e shared-mutable roots} are top-level bindings whose initializer
     allocates mutable state outside any lambda ([ref], [Hashtbl.create],
     [Buffer.create], [Bytes.*], [Array.make]/[init], [Prng.create],
     ...).  A binding like [let table = Hashtbl.create 16] is one heap
     object shared by every caller — and by every domain.  Ambient
     process state counts too: the global [Random] state and the
     stdout/stderr print family.
   - {e domain-local} allocations are the same calls inside a function
     body: each invocation makes a fresh object, so parallel callers
     never alias (provided arguments are caller-owned — see below).
   - {e domain-safe} roots are shared but immutable after
     initialization (annotate the binding [@lint.domain_safe]).

   The root-set of each function is solved as a fixpoint over
   {!Fixpoint.String_set_lattice} (direct touches joined with callees'
   sets).  Enforcement is opt-in at the dispatch boundary: a function
   annotated [@lint.parallel_entry] must have an empty root-set, and
   every [Par.map]-style dispatch must hand over an annotated top-level
   binding — so deleting the annotation to dodge the analysis moves the
   diagnostic to the dispatch site instead of silencing it.

   Soundness direction and its stated gap: the analysis is
   over-approximate on reachability (every identifier occurrence is an
   edge, unknown callees are assumed clean like the taint rule's
   sources are assumed absent) but trusts the caller on {e argument}
   ownership — it cannot see that two workers were handed the same
   mutable argument.  Entry points must own their arguments
   (e.g. a fresh [Graph.t] per work item, because graphs memoize
   border/component caches internally).  DESIGN.md §12 spells out the
   contract. *)

open Ppxlib

let rule_id = "domain-safety"

let has_attr name attrs =
  List.exists (fun (a : attribute) -> String.equal a.attr_name.txt name) attrs

let is_entry (fn : Callgraph.fn) = has_attr "lint.parallel_entry" fn.attrs
let is_declared_safe (fn : Callgraph.fn) = has_attr "lint.domain_safe" fn.attrs

(* Name segments with the [Stdlib.] prefix stripped, so [ref],
   [Stdlib.ref] and [Stdlib.Hashtbl.create] all normalize. *)
let segments name =
  match String.split_on_char '.' name with
  | "Stdlib" :: rest -> rest
  | segs -> segs

(* Allocators of mutable state, as (module, function) suffixes.  A call
   to one of these in a top-level initializer makes the binding a
   shared-mutable root; the same call inside a lambda is a fresh
   domain-local object per invocation. *)
let allocator_pairs =
  [
    ("Hashtbl", "create");
    ("Buffer", "create");
    ("Queue", "create");
    ("Stack", "create");
    ("Log", "create");
    ("Stats", "create");
    ("Prng", "create");
    ("Prng", "copy");
    ("Prng", "split");
    ("Bytes", "create");
    ("Bytes", "make");
    ("Bytes", "of_string");
    ("Bytes", "copy");
    ("Array", "make");
    ("Array", "init");
    ("Array", "copy");
    ("Array", "make_matrix");
    ("Array", "create_float");
    ("Array", "of_list");
  ]

let is_allocator_name name =
  match List.rev (segments name) with
  | [ "ref" ] -> true
  | f :: m :: _ ->
      List.exists
        (fun (m', f') -> String.equal m m' && String.equal f f')
        allocator_pairs
  | _ -> false

(* Ambient process-wide mutable state, matched by call name (these never
   resolve in-batch).  Random.self_init & friends are already direct
   determinism violations; here even seeded use is a cross-domain race. *)
let print_family =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
  ]

let ambient_root name =
  match segments name with
  | [ f ] when List.exists (String.equal f) print_family ->
      Some "the process stdout/stderr"
  | "Random" :: _ :: _ -> Some "the global Random state"
  | [ m; f ]
    when (String.equal m "Printf" || String.equal m "Format")
         && (String.equal f "printf" || String.equal f "eprintf") ->
      Some "the process stdout/stderr"
  | _ -> None

(* Does this top-level binding's initializer allocate mutable state
   outside any lambda?  Lambdas are not descended into: allocations
   under them happen per call, not at module init. *)
let initializer_allocates body =
  let found = ref false in
  let iter =
    object (self)
      inherit Ast_traverse.iter as super

      method! expression e =
        match e.pexp_desc with
        | Pexp_function _ -> ()
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            if is_allocator_name (Ast_util.lid_to_string txt) then found := true;
            List.iter (fun (_, a) -> self#expression a) args
        | _ -> super#expression e
    end
  in
  iter#expression body;
  !found

module Roots = Fixpoint.Make (Fixpoint.String_set_lattice)

let dispatchers = [ "map" ]

let is_par_dispatch lid =
  match List.rev (segments (Ast_util.lid_to_string lid)) with
  | f :: "Par" :: _ -> List.exists (String.equal f) dispatchers
  | _ -> false

(* Same-batch resolution goes through LAST module segments, so
   [Engine.run] in lib/core resolves to both the simulator's engine and
   the lint tool's own — but the build graph makes half of those edges
   impossible: libraries under lib/ never link against tools/ or bench/
   executables.  Pruning candidates the dependency structure forbids
   (callee must live in lib/, or in the caller's own top-level tree) is
   therefore a precision gain, not a soundness loss. *)
let top_dir rel =
  match String.index_opt rel '/' with
  | Some i -> String.sub rel 0 i
  | None -> "."

let plausible_edge ~(caller : Callgraph.fn) callee_rel =
  String.equal (top_dir callee_rel) "lib"
  || String.equal (top_dir callee_rel) (top_dir caller.file.Rule.rel)

let check ~batch ~eligible =
  let g = Callgraph.of_batch batch in
  let fns = Callgraph.functions g in
  let callees (caller : Callgraph.fn) ids =
    List.filter
      (fun c ->
        match Callgraph.find g c with
        | Some fn -> plausible_edge ~caller fn.file.Rule.rel
        | None -> false)
      ids
  in
  (* Pass 1: classify roots. *)
  let root_of : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (fn : Callgraph.fn) ->
      if initializer_allocates fn.body && not (is_declared_safe fn) then
        Hashtbl.replace root_of fn.id
          (Printf.sprintf "'%s' (%s)" fn.dotted fn.file.Rule.rel))
    fns;
  (* Direct touches: in-batch edges into root bindings, plus ambient
     state matched by name. *)
  let direct (fn : Callgraph.fn) =
    List.fold_left
      (fun acc (call : Callgraph.call) ->
        let acc =
          match ambient_root call.name with
          | Some a -> Fixpoint.String_set_lattice.(join acc (singleton a))
          | None -> acc
        in
        match call.callee with
        | Callgraph.Unknown _ -> acc
        | Callgraph.Known ids ->
            List.fold_left
              (fun acc c ->
                match Hashtbl.find_opt root_of c with
                | Some label ->
                    Fixpoint.String_set_lattice.(join acc (singleton label))
                | None -> acc)
              acc (callees fn ids))
      Fixpoint.String_set_lattice.bottom fn.calls
  in
  (* Pass 2: close reachability.  Root bindings themselves transfer
     bottom (their initializers run once, pre-spawn, at module init). *)
  let keys = List.map (fun (f : Callgraph.fn) -> f.id) fns in
  let transfer get id =
    match Callgraph.find g id with
    | None -> Fixpoint.String_set_lattice.bottom
    | Some fn ->
        if Hashtbl.mem root_of fn.id then Fixpoint.String_set_lattice.bottom
        else
          List.fold_left
            (fun acc (call : Callgraph.call) ->
              match call.callee with
              | Callgraph.Unknown _ -> acc
              | Callgraph.Known ids ->
                  List.fold_left
                    (fun acc c ->
                      if Hashtbl.mem root_of c then acc
                      else Fixpoint.String_set_lattice.join acc (get c))
                    acc (callees fn ids))
            (direct fn) fn.calls
  in
  let roots, _stats = Roots.solve ~keys ~transfer in
  (* Witness search: shortest path from the entry to a function that
     directly touches the root, along the same edges the fixpoint
     propagated over (plausible edges only, root bindings are not
     intermediate nodes) — Callgraph.bfs_path knows neither, so a local
     BFS. *)
  let bfs_witness ~start ~goal =
    let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.replace parent start start;
    let q = Queue.create () in
    Queue.add start q;
    let found = ref None in
    while Option.is_none !found && not (Queue.is_empty q) do
      let id = Queue.pop q in
      if goal id then found := Some id
      else
        match Callgraph.find g id with
        | None -> ()
        | Some fn ->
            List.iter
              (fun (call : Callgraph.call) ->
                match call.callee with
                | Callgraph.Unknown _ -> ()
                | Callgraph.Known ids ->
                    List.iter
                      (fun c ->
                        if
                          not (Hashtbl.mem parent c || Hashtbl.mem root_of c)
                        then begin
                          Hashtbl.replace parent c id;
                          Queue.add c q
                        end)
                      (callees fn ids))
              fn.calls
    done;
    match !found with
    | None -> None
    | Some goal_id ->
        let rec up acc id =
          let p = Hashtbl.find parent id in
          if String.equal p id then id :: acc else up (id :: acc) p
        in
        Some (up [] goal_id)
  in
  let eligible_rels = List.map (fun (f : Rule.source_file) -> f.rel) eligible in
  let in_eligible (fn : Callgraph.fn) =
    List.exists (String.equal fn.file.Rule.rel) eligible_rels
  in
  (* Diagnostics at annotated entries: one per reachable root. *)
  let entry_diags =
    List.concat_map
      (fun (fn : Callgraph.fn) ->
        if is_entry fn && in_eligible fn then
          List.map
            (fun root ->
              let via =
                match
                  bfs_witness ~start:fn.id ~goal:(fun id ->
                      match Callgraph.find g id with
                      | Some f ->
                          Fixpoint.String_set_lattice.mem root (direct f)
                      | None -> false)
                with
                | Some [ _ ] -> "touched directly"
                | Some path -> "via " ^ Callgraph.pp_path g path
                | None -> "via an unreconstructed path"
              in
              Diagnostic.make ~rule:rule_id ~file:fn.file.Rule.rel ~loc:fn.loc
                (Printf.sprintf
                   "'%s' is a [@lint.parallel_entry] but may touch the shared \
                    mutable root %s (%s); make the state domain-local"
                   fn.name root via))
            (roots fn.id)
        else [])
      fns
  in
  (* Diagnostics at dispatch sites: Par.map only takes annotated
     top-level bindings, so the certificate cannot be dodged by
     deleting the annotation. *)
  let dispatch_diags = ref [] in
  let push d = dispatch_diags := d :: !dispatch_diags in
  let check_dispatch (file : Rule.source_file) (fexpr : expression) =
    let diag loc msg = push (Diagnostic.make ~rule:rule_id ~file:file.Rule.rel ~loc msg) in
    match fexpr.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        let name = Ast_util.lid_to_string txt in
        match Callgraph.resolve g ~file txt with
        | Callgraph.Known (_ :: _ as ids)
          when List.for_all
                 (fun id ->
                   match Callgraph.find g id with
                   | Some fn -> is_entry fn
                   | None -> false)
                 ids ->
            ()
        | Callgraph.Known _ ->
            diag loc
              (Printf.sprintf
                 "Par dispatch of '%s', which is not annotated \
                  [@lint.parallel_entry]; the domain-safety analysis only \
                  certifies annotated entry points"
                 name)
        | Callgraph.Unknown _ ->
            diag loc
              (Printf.sprintf
                 "Par dispatch of '%s', which does not resolve to a \
                  same-batch top-level binding; parallel entry points must \
                  be top-level [@lint.parallel_entry] bindings"
                 name))
    | Pexp_function _ ->
        diag fexpr.pexp_loc
          "Par dispatch of an anonymous function; bind it at top level and \
           annotate it [@lint.parallel_entry] so the domain-safety analysis \
           can certify it"
    | _ ->
        diag fexpr.pexp_loc
          "Par dispatch of a computed function; parallel entry points must \
           be top-level [@lint.parallel_entry] bindings"
  in
  List.iter
    (fun (file : Rule.source_file) ->
      match file.Rule.ast with
      | Rule.Impl str ->
          let iter =
            object
              inherit Ast_traverse.iter as super

              method! expression e =
                (match e.pexp_desc with
                | Pexp_apply
                    ({ pexp_desc = Pexp_ident { txt = head; _ }; _ }, args)
                  when is_par_dispatch head -> (
                    match
                      List.find_opt (fun (lbl, _) -> lbl = Nolabel) args
                    with
                    | Some (_, fexpr) -> check_dispatch file fexpr
                    | None -> ())
                | _ -> ());
                super#expression e
            end
          in
          iter#structure str
      | Rule.Intf _ -> ())
    eligible;
  entry_diags @ List.rev !dispatch_diags

let rule =
  Rule.flow_rule ~id:rule_id
    ~doc:
      "functions reachable from a [@lint.parallel_entry] touch no \
       shared-mutable root (escape analysis over the call graph); Par \
       dispatch requires the annotation"
    check
