(** The rule registry's vocabulary. *)

type ast =
  | Impl of Ppxlib.Parsetree.structure
  | Intf of Ppxlib.Parsetree.signature

type source_file = {
  path : string;
  rel : string;
  component : string;
  basename : string;
  ast : ast;
  source_len : int;
}

(** Which engine pass a rule belongs to: [Syntactic] rules look at one
    file at a time; [Flow] rules see the whole batch, so their call
    graph is complete when the batch is the whole tree. *)
type analysis = Syntactic | Flow

type check =
  | Per_file of (source_file list -> Diagnostic.t list)
      (** receives the policy-eligible files *)
  | Whole_batch of
      (batch:source_file list ->
      eligible:source_file list ->
      Diagnostic.t list)
      (** additionally receives the full batch for call-graph context;
          reports should stay within [eligible] *)

type t = { id : string; doc : string; analysis : analysis; check : check }

val impl_rule :
  id:string ->
  doc:string ->
  (add:(loc:Ppxlib.Location.t -> string -> unit) ->
  Ppxlib.Parsetree.structure ->
  unit) ->
  t
(** Builds the common shape: a syntactic, per-file walk over
    implementations only. *)

val flow_rule :
  id:string ->
  doc:string ->
  (batch:source_file list -> eligible:source_file list -> Diagnostic.t list) ->
  t
(** Builds an interprocedural rule: always [Flow], always
    [Whole_batch]. *)
