(* hot-path-alloc: functions on the certified hot path allocate nothing.

   PR 6 bought the Deliver fast path by hand — flat state, small-array
   literals, top-level recursion instead of closures, physically-equal
   returns — but nothing guarded those wins: one innocent closure or
   boxed tuple on the fast path silently regresses allocation until a
   bench run notices.  This rule is the static certificate.

   Per function, a syntactic pass collects {e allocation sites} from
   the Parsetree:

   - closure construction (any lambda below the binding's own currying
     spine — the repo's hot loops hoist these to top-level recursion);
   - record / tuple / constructor / variant construction outside
     constant context (structured constants are lifted to static data;
     array literals always allocate because arrays are mutable);
   - partial applications of same-batch functions (arity from the
     callee's currying spine);
   - boxed float arithmetic and float-returning stdlib entries;
   - [Printf]/[Format]/[Scanf] calls (format-string machinery);
   - calls into known-allocating stdlib entries ([ref], [Array.make],
     [List.map], [failwith], ...);
   - calls whose target the call graph cannot resolve — parameters,
     computed functions, functor output, unlisted stdlib — are
     {e conservatively allocating} (Top), so the whole-tree
     @lint run stays sound.

   May-allocate then closes transitively over the same-batch call
   graph as a {!Fixpoint.Bool_lattice} fixpoint.  [@lint.cold] on a
   binding cuts propagation: deliberate slow paths (full stabilize
   fallback, decide-time GC, growth doublings, trace export) are
   exempt by design and documented at the annotation.  A function
   annotated [@lint.hot_path] must come out allocation-free; the
   diagnostic carries a shortest-path witness to the first allocating
   construct, same UX as the nondet-taint witness.

   The static certificate is deliberately path-INsensitive: a function
   whose fast path allocates nothing but whose rare branch allocates
   (FD first registration, a Deliver that updates the state) cannot be
   certified — it carries a [@lint.allow "hot-path-alloc"] whose comment
   cites the measured [Gc.minor_words] budget; `bench alloc` asserts the
   dynamic twin of every certificate, so static verdict and counter
   agree. *)

open Ppxlib

let rule_id = "hot-path-alloc"

let has_attr name attrs =
  List.exists (fun (a : attribute) -> String.equal a.attr_name.txt name) attrs

let is_hot (fn : Callgraph.fn) = has_attr "lint.hot_path" fn.attrs
let is_cold (fn : Callgraph.fn) = has_attr "lint.cold" fn.attrs

let segments name =
  match String.split_on_char '.' name with
  | "Stdlib" :: rest -> rest
  | segs -> segs

(* Known-non-allocating stdlib entries and primitives: exactly the
   vocabulary the certified loops are allowed to speak.  Everything
   outside this list that does not resolve in-batch is Top. *)
let pure_singles =
  [
    "+"; "-"; "*"; "/"; "mod"; "abs"; "succ"; "pred"; "land"; "lor"; "lxor";
    "lnot"; "lsl"; "lsr"; "asr"; "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!=";
    "compare"; "min"; "max"; "not"; "&&"; "||"; "ignore"; "fst"; "snd";
    "raise"; "raise_notrace"; "incr"; "decr"; "!"; ":="; "~-"; "~+"; "@@";
    "|>";
  ]

let pure_pairs =
  [
    ("Int", "equal"); ("Int", "compare"); ("Int", "max"); ("Int", "min");
    ("Int", "abs"); ("Bool", "equal"); ("Bool", "not"); ("Char", "equal");
    ("Char", "compare"); ("Char", "code");
    ("Array", "length"); ("Array", "get"); ("Array", "set");
    ("Array", "unsafe_get"); ("Array", "unsafe_set"); ("Array", "blit");
    ("Array", "fill");
    ("Bytes", "length"); ("Bytes", "get"); ("Bytes", "set");
    ("Bytes", "unsafe_get"); ("Bytes", "unsafe_set"); ("Bytes", "blit");
    ("Bytes", "fill");
    ("String", "length"); ("String", "get"); ("String", "unsafe_get");
    ("String", "equal"); ("String", "compare");
    ("Option", "is_none"); ("Option", "is_some");
    ("Hashtbl", "mem"); ("Hashtbl", "length");
  ]

let is_pure_name name =
  match List.rev (segments name) with
  | [ f ] -> List.exists (String.equal f) pure_singles
  | f :: m :: _ ->
      List.exists
        (fun (m', f') -> String.equal m m' && String.equal f f')
        pure_pairs
  | [] -> false

(* Float arithmetic boxes its result; the hot paths are integer-only. *)
let float_ops =
  [
    "+."; "-."; "*."; "/."; "**"; "~-."; "sqrt"; "exp"; "log"; "floor";
    "ceil"; "float_of_int"; "mod_float";
  ]

let is_float_op name =
  match segments name with
  | [ f ] -> List.exists (String.equal f) float_ops
  | [ "Float"; _ ] -> true
  | _ -> false

let alloc_singles =
  [ "ref"; "failwith"; "invalid_arg"; "@"; "^"; "^^"; "string_of_int" ]

let alloc_pairs =
  [
    ("Array", "make"); ("Array", "init"); ("Array", "copy");
    ("Array", "append"); ("Array", "sub"); ("Array", "of_list");
    ("Array", "to_list"); ("Array", "make_matrix"); ("Array", "create_float");
    ("Array", "map"); ("Array", "mapi");
    ("List", "map"); ("List", "mapi"); ("List", "rev"); ("List", "append");
    ("List", "init"); ("List", "concat"); ("List", "filter");
    ("List", "cons"); ("List", "sort"); ("List", "of_seq");
    ("String", "concat"); ("String", "sub"); ("String", "make");
    ("String", "cat");
    ("Bytes", "create"); ("Bytes", "make"); ("Bytes", "copy");
    ("Bytes", "sub"); ("Bytes", "of_string"); ("Bytes", "to_string");
    ("Buffer", "create"); ("Buffer", "contents"); ("Buffer", "add_string");
    ("Hashtbl", "create"); ("Hashtbl", "add"); ("Hashtbl", "replace");
    ("Hashtbl", "copy");
    ("Queue", "create"); ("Queue", "add"); ("Queue", "push");
    ("Stack", "create"); ("Stack", "push");
  ]

let known_allocator name =
  match List.rev (segments name) with
  | [ f ] when List.exists (String.equal f) alloc_singles -> true
  | f :: m :: _ ->
      List.exists
        (fun (m', f') -> String.equal m m' && String.equal f f')
        alloc_pairs
  | _ -> false

let is_format_call name =
  match segments name with
  | ("Printf" | "Format" | "Scanf") :: _ -> true
  | _ -> false

(* Structured constants are lifted to static data by the compiler —
   except arrays, which are mutable and allocate on every evaluation. *)
let rec is_constant (e : expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> true
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
      is_constant arg
  | Pexp_tuple es -> List.for_all is_constant es
  | Pexp_constraint (e, _) -> is_constant e
  | _ -> false

(* The binding's own currying spine: [fun a b -> body] is evaluated
   once at module init, so only lambdas BELOW the spine count as
   per-call closure construction.  Same peel as Cfg. *)
let rec spine (e : expression) =
  match e.pexp_desc with
  | Pexp_function (_, _, Pfunction_body body) -> spine body
  | Pexp_function (_, _, Pfunction_cases (cases, _, _)) -> Error cases
  | Pexp_constraint (body, _) -> spine body
  | _ -> Ok e

let rec arity_of (e : expression) =
  match e.pexp_desc with
  | Pexp_function (params, _, Pfunction_body body) ->
      List.length params + arity_of body
  | Pexp_function (params, _, Pfunction_cases _) -> List.length params + 1
  | Pexp_constraint (body, _) -> arity_of body
  | _ -> 0

type site = { desc : string; loc : Location.t }

(* First allocation site of a function body in source order, or [None]
   for a certified-clean body.  [resolve] classifies application heads;
   in-batch callees become call-graph edges handled by the fixpoint,
   everything else is judged by name. *)
let first_site ~(g : Callgraph.t) ~(fn : Callgraph.fn)
    ~(plausible : string list -> string list) : site option =
  let best : site option ref = ref None in
  let push desc (loc : Location.t) =
    match !best with
    | Some s when s.loc.loc_start.pos_cnum <= loc.loc_start.pos_cnum -> ()
    | _ -> best := Some { desc; loc }
  in
  let head_site lid loc nargs =
    let name = Ast_util.lid_to_string lid in
    if is_float_op name then
      push (Printf.sprintf "boxed float arithmetic ('%s')" name) loc
    else if is_format_call name then
      push (Printf.sprintf "format-string call '%s'" name) loc
    else
      match Callgraph.resolve g ~file:fn.file lid with
      | Callgraph.Known ids when plausible ids <> [] ->
          let ids = plausible ids in
          let arities =
            List.filter_map
              (fun id ->
                match Callgraph.find g id with
                | Some callee -> Some (arity_of callee.body)
                | None -> None)
              ids
          in
          if
            arities <> []
            && List.for_all (fun a -> a > 0 && nargs < a) arities
          then push (Printf.sprintf "partial application of '%s'" name) loc
      | _ ->
          if known_allocator name then
            push (Printf.sprintf "call to allocating '%s'" name) loc
          else if not (is_pure_name name) then
            push
              (Printf.sprintf
                 "call to unresolved '%s' (conservatively allocating)" name)
              loc
  in
  let iter =
    object (self)
      inherit Ast_traverse.iter as super

      method! expression e =
        match e.pexp_desc with
        | Pexp_function _ ->
            push "closure construction" e.pexp_loc;
            super#expression e
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
            head_site txt loc (List.length args);
            List.iter (fun (_, a) -> self#expression a) args
        | Pexp_apply (head, args) ->
            push "call through a computed function" head.pexp_loc;
            self#expression head;
            List.iter (fun (_, a) -> self#expression a) args
        | Pexp_array [] -> ()
        | Pexp_array _ ->
            push "array literal" e.pexp_loc;
            super#expression e
        | Pexp_record _ ->
            push "record construction" e.pexp_loc;
            super#expression e
        | Pexp_tuple _ when not (is_constant e) ->
            push "tuple construction" e.pexp_loc;
            super#expression e
        | Pexp_construct (lid, Some _) when not (is_constant e) ->
            push
              (Printf.sprintf "constructor application '%s'"
                 (Ast_util.lid_to_string lid.txt))
              e.pexp_loc;
            super#expression e
        | Pexp_variant (_, Some _) when not (is_constant e) ->
            push "polymorphic variant construction" e.pexp_loc;
            super#expression e
        | Pexp_lazy _ ->
            push "lazy thunk construction" e.pexp_loc;
            super#expression e
        | Pexp_letop _ ->
            push "binding-operator application" e.pexp_loc;
            super#expression e
        | Pexp_object _ | Pexp_new _ | Pexp_pack _ ->
            push "object/module value construction" e.pexp_loc;
            super#expression e
        | _ -> super#expression e
    end
  in
  (match spine fn.body with
  | Ok body -> iter#expression body
  | Error cases ->
      List.iter
        (fun (c : case) ->
          Option.iter iter#expression c.pc_guard;
          iter#expression c.pc_rhs)
        cases);
  !best

module May_alloc = Fixpoint.Make (Fixpoint.Bool_lattice)

(* Build-dependency pruning: libraries under lib/ never link against
   tools/ or bench/ executables, so last-segment resolution into another
   top-level tree is impossible. *)
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
  (* Pass 1: direct sites per function. *)
  let direct : (string, site) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (fn : Callgraph.fn) ->
      match first_site ~g ~fn ~plausible:(callees fn) with
      | Some s -> Hashtbl.replace direct fn.id s
      | None -> ())
    fns;
  (* Pass 2: transitive may-allocate.  Cold bindings transfer bottom —
     the cut IS the exemption, documented at the annotation. *)
  let keys = List.map (fun (f : Callgraph.fn) -> f.id) fns in
  let transfer get id =
    match Callgraph.find g id with
    | None -> false
    | Some fn ->
        if is_cold fn then false
        else
          Hashtbl.mem direct fn.id
          || List.exists
               (fun (call : Callgraph.call) ->
                 match call.callee with
                 | Callgraph.Unknown _ -> false
                 | Callgraph.Known ids ->
                     List.exists
                       (fun c ->
                         match Callgraph.find g c with
                         | Some callee when is_cold callee -> false
                         | _ -> get c)
                       (callees fn ids))
               fn.calls
  in
  let may_alloc, _stats = May_alloc.solve ~keys ~transfer in
  (* Witness: shortest path from the entry to a function with a direct
     site, along the same (cold-cut) edges the fixpoint used. *)
  let bfs_to_site ~start =
    let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.replace parent start start;
    let q = Queue.create () in
    Queue.add start q;
    let found = ref None in
    while Option.is_none !found && not (Queue.is_empty q) do
      let id = Queue.pop q in
      if Hashtbl.mem direct id then found := Some id
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
                        if not (Hashtbl.mem parent c) then
                          let skip =
                            match Callgraph.find g c with
                            | Some f -> is_cold f
                            | None -> false
                          in
                          if not skip then begin
                            Hashtbl.replace parent c id;
                            Queue.add c q
                          end)
                      (callees fn ids))
              fn.calls
    done;
    match !found with
    | None -> None
    | Some goal ->
        let rec up acc id =
          let p = Hashtbl.find parent id in
          if String.equal p id then id :: acc else up (id :: acc) p
        in
        Some (up [] goal)
  in
  let eligible_rels = List.map (fun (f : Rule.source_file) -> f.rel) eligible in
  let in_eligible (fn : Callgraph.fn) =
    List.exists (String.equal fn.file.Rule.rel) eligible_rels
  in
  List.concat_map
    (fun (fn : Callgraph.fn) ->
      if not (in_eligible fn) then []
      else if is_hot fn && is_cold fn then
        [
          Diagnostic.make ~rule:rule_id ~file:fn.file.Rule.rel ~loc:fn.loc
            (Printf.sprintf
               "'%s' is marked both [@lint.hot_path] and [@lint.cold]; a \
                binding is a certified entry or a propagation cut, never both"
               fn.name);
        ]
      else if is_hot fn && may_alloc fn.id then
        let goal_id, via =
          match bfs_to_site ~start:fn.id with
          | Some [ self ] -> (Some self, "in its own body")
          | Some path -> (
              match List.rev path with
              | goal :: _ -> (Some goal, "via " ^ Callgraph.pp_path g path)
              | [] -> (None, "via an unreconstructed path"))
          | None -> (None, "via an unreconstructed path")
        in
        let site_text =
          match goal_id with
          | Some goal -> (
              match (Hashtbl.find_opt direct goal, Callgraph.find g goal) with
              | Some s, Some goal_fn ->
                  Printf.sprintf "%s at %s:%d" s.desc goal_fn.file.Rule.rel
                    s.loc.loc_start.pos_lnum
              | Some s, None ->
                  Printf.sprintf "%s at line %d" s.desc
                    s.loc.loc_start.pos_lnum
              | None, _ -> "an allocation the witness search could not relocate"
              )
          | None -> "an allocation the witness search could not relocate"
        in
        [
          Diagnostic.make ~rule:rule_id ~file:fn.file.Rule.rel ~loc:fn.loc
            (Printf.sprintf
               "'%s' is [@lint.hot_path] but may allocate: %s (%s); remove \
                the allocation, cut the deliberate slow path [@lint.cold], \
                or justify a measured budget with [@lint.allow \
                \"hot-path-alloc\"]"
               fn.name site_text via);
        ]
      else [])
    fns

let rule =
  Rule.flow_rule ~id:rule_id
    ~doc:
      "functions reachable from a [@lint.hot_path] binding allocate nothing \
       (interprocedural may-allocate closure, [@lint.cold] cuts, unknown \
       callees conservatively allocating)"
    check
