(* Same-batch call graph.

   Nodes are top-level value bindings (including bindings inside
   literal sub-modules); an invocation's batch is the universe, so the
   graph spans every component the caller passed — the root @lint gate
   feeds every component directory at once.

   Resolution is purely syntactic and deliberately over-approximate:

   - an unqualified identifier resolves to every same-file top-level
     binding of that name (shadowing by locals is ignored);
   - [A.B.f] resolves through the LAST module segment: [B] matches
     either a file [b.ml] in the batch or a literal sub-module [B] of
     any batch file — every match gets an edge;
   - any identifier occurrence counts as a call, application head or
     not, so a function passed higher-order keeps its edge;
   - everything else — functor-made modules ([Map.Make] instances),
     parameters, stdlib — is an explicit [Unknown] summary the
     analyses treat according to their own soundness direction.

   Functor bodies are skipped: nothing in the batch can call into an
   uninstantiated functor without going through [Unknown] anyway. *)

open Ppxlib

type callee = Known of string list  (** candidate function ids *)
            | Unknown of string  (** flattened name, for tables/messages *)

type call = { callee : callee; name : string; loc : Location.t }

type fn = {
  id : string;  (** [rel ^ "#" ^ dotted], unique per batch *)
  dotted : string;  (** module-qualified display name, e.g. [Protocol.deliver] *)
  name : string;  (** plain binding name *)
  file : Rule.source_file;
  loc : Location.t;  (** whole-binding span *)
  body : expression;
  mutable calls : call list;
}

type t = {
  fns : (string, fn) Hashtbl.t;
  order : string list;  (** deterministic: batch order, then source order *)
  by_key : (string, string list) Hashtbl.t;  (** "Module.f" -> ids *)
  by_file : (string, string list) Hashtbl.t;  (** "rel#f" -> ids *)
  callers : (string, string list) Hashtbl.t;  (** reverse Known edges *)
}

let module_of_basename basename =
  String.capitalize_ascii (Filename.remove_extension basename)

let multi_add tbl key id =
  let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  if not (List.exists (String.equal id) prev) then
    Hashtbl.replace tbl key (prev @ [ id ])

(* ------------------------------------------------------------------ *)
(* Pass 1: collect bindings                                            *)

let rec binding_names pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_constraint (p, _) | Ppat_alias (p, _) -> binding_names p
  | Ppat_tuple ps -> List.concat_map binding_names ps
  | _ -> []

let collect_file (g : t) order (file : Rule.source_file) =
  let file_module = module_of_basename file.basename in
  let rec structure mods items = List.iter (item mods) items
  and item mods it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            List.iter
              (fun name ->
                let dotted = String.concat "." (mods @ [ name ]) in
                let id = file.rel ^ "#" ^ dotted in
                if not (Hashtbl.mem g.fns id) then begin
                  Hashtbl.replace g.fns id
                    {
                      id;
                      dotted;
                      name;
                      file;
                      loc = vb.pvb_loc;
                      body = vb.pvb_expr;
                      calls = [];
                    };
                  order := id :: !order;
                  (* Qualified lookup goes through the innermost module
                     segment; unqualified lookup through the file. *)
                  let seg =
                    match List.rev mods with seg :: _ -> seg | [] -> assert false
                  in
                  multi_add g.by_key (seg ^ "." ^ name) id;
                  multi_add g.by_file (file.rel ^ "#" ^ name) id
                end)
              (binding_names vb.pvb_pat))
          vbs
    | Pstr_module mb -> module_binding mods mb
    | Pstr_recmodule mbs -> List.iter (module_binding mods) mbs
    | _ -> ()
  and module_binding mods mb =
    match (mb.pmb_name.txt, module_structure mb.pmb_expr) with
    | Some name, Some items -> structure (mods @ [ name ]) items
    | _ -> ()
  and module_structure me =
    match me.pmod_desc with
    | Pmod_structure items -> Some items
    | Pmod_constraint (me, _) -> module_structure me
    | _ -> None (* functors, applications, aliases: Unknown territory *)
  in
  match file.ast with
  | Rule.Intf _ -> ()
  | Rule.Impl items -> structure [ file_module ] items

(* ------------------------------------------------------------------ *)
(* Pass 2: resolve identifier occurrences to edges                     *)

let resolve (g : t) ~(file : Rule.source_file) (lid : Longident.t) : callee =
  let parts = Ast_util.unqualify lid in
  match List.rev parts with
  | [] -> Unknown ""
  | [ name ] -> (
      match Hashtbl.find_opt g.by_file (file.rel ^ "#" ^ name) with
      | Some ids -> Known ids
      | None -> Unknown name)
  | name :: seg :: _ -> (
      match Hashtbl.find_opt g.by_key (seg ^ "." ^ name) with
      | Some ids -> Known ids
      | None -> Unknown (String.concat "." parts))

let collect_calls (g : t) (fn : fn) =
  let acc = ref [] in
  let iter =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
            let callee = resolve g ~file:fn.file txt in
            let name = Ast_util.lid_to_string txt in
            (* Self-reference through the binding's own name is a real
               edge (recursion) and harmless. *)
            acc := { callee; name; loc } :: !acc
        | _ -> ());
        super#expression e
    end
  in
  iter#expression fn.body;
  fn.calls <- List.rev !acc

let build (files : Rule.source_file list) : t =
  let g =
    {
      fns = Hashtbl.create 256;
      order = [];
      by_key = Hashtbl.create 256;
      by_file = Hashtbl.create 256;
      callers = Hashtbl.create 256;
    }
  in
  let order = ref [] in
  List.iter (collect_file g order) files;
  let g = { g with order = List.rev !order } in
  List.iter
    (fun id ->
      let fn = Hashtbl.find g.fns id in
      collect_calls g fn;
      List.iter
        (fun call ->
          match call.callee with
          | Known ids -> List.iter (fun c -> multi_add g.callers c fn.id) ids
          | Unknown _ -> ())
        fn.calls)
    g.order;
  g

(* The engine hands every Whole_batch rule the same list, so a one-slot
   physical-equality cache makes the graph a per-invocation artifact
   shared by all four flow rules. *)
let cache : (Rule.source_file list * t) option ref = ref None

let of_batch files =
  match !cache with
  | Some (cached, g) when cached == files -> g
  | _ ->
      let g = build files in
      cache := Some (files, g);
      g

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let find (g : t) id = Hashtbl.find_opt g.fns id

let functions (g : t) = List.map (Hashtbl.find g.fns) g.order

let callers_of (g : t) id =
  Option.value ~default:[] (Hashtbl.find_opt g.callers id)

(* Deterministic BFS over Known callee edges; the witness path rendered
   in diagnostics.  [starts] seed the queue in order; ties resolve to
   the earliest-discovered parent. *)
let bfs_path (g : t) ~(starts : string list) ~(goal : string -> bool) :
    string list option =
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem parent s) then begin
        Hashtbl.replace parent s None;
        Queue.add s queue
      end)
    starts;
  let rec reconstruct acc id =
    match Hashtbl.find parent id with
    | None -> id :: acc
    | Some p -> reconstruct (id :: acc) p
  in
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if goal id then found := Some (reconstruct [] id)
    else
      match find g id with
      | None -> ()
      | Some fn ->
          List.iter
            (fun call ->
              match call.callee with
              | Unknown _ -> ()
              | Known ids ->
                  List.iter
                    (fun c ->
                      if not (Hashtbl.mem parent c) then begin
                        Hashtbl.replace parent c (Some id);
                        Queue.add c queue
                      end)
                    ids)
            fn.calls
  done;
  !found

let pp_path (g : t) (ids : string list) =
  String.concat " -> "
    (List.map
       (fun id -> match find g id with Some fn -> fn.dotted | None -> id)
       ids)
