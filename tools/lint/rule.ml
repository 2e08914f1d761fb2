(* The rule registry's vocabulary.

   A [Per_file] rule sees the policy-eligible files of the invocation at
   once: most fold over files one by one, but directory-level rules
   (mli-coverage) need the whole batch to pair [.ml] files with their
   interfaces.

   A [Whole_batch] rule additionally receives every parsed file of the
   invocation — eligible or not — because interprocedural analyses need
   the full call graph even when policy confines their *reports* to a
   subset (e.g. decide-once reasons over all of lib/ but only flags
   emissions in lib/core). *)

type ast =
  | Impl of Ppxlib.Parsetree.structure
  | Intf of Ppxlib.Parsetree.signature

type source_file = {
  path : string;  (** on-disk path, used to (re)open the file *)
  rel : string;  (** reported path: [component ^ "/" ^ basename] *)
  component : string;  (** policy key, e.g. ["lib/core"] *)
  basename : string;
  ast : ast;
  source_len : int;  (** bytes; closes file-scoped suppression spans *)
}

(* Which engine pass a rule belongs to: [Syntactic] rules look at one
   file at a time; [Flow] rules see the whole batch (in the root @lint
   gate, every component), so the call graph is complete. *)
type analysis = Syntactic | Flow

type check =
  | Per_file of (source_file list -> Diagnostic.t list)
  | Whole_batch of
      (batch:source_file list ->
      eligible:source_file list ->
      Diagnostic.t list)

type t = {
  id : string;
  doc : string;  (** one-line description for [--list-rules] and docs *)
  analysis : analysis;
  check : check;
}

(* Convenience for the common shape: an implementation-only, per-file
   expression walk.  [f] receives a sink and the structure. *)
let impl_rule ~id ~doc f =
  let check files =
    List.concat_map
      (fun file ->
        match file.ast with
        | Intf _ -> []
        | Impl structure ->
            let acc = ref [] in
            let add ~loc message =
              acc := Diagnostic.make ~rule:id ~file:file.rel ~loc message :: !acc
            in
            f ~add structure;
            List.rev !acc)
      files
  in
  { id; doc; analysis = Syntactic; check = Per_file check }

(* Convenience for interprocedural rules: always [Flow], always
   [Whole_batch]. *)
let flow_rule ~id ~doc f =
  { id; doc; analysis = Flow; check = Whole_batch f }
