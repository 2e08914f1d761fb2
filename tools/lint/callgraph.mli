(** Same-batch call graph over top-level value bindings.

    Conservative over-approximation: unqualified identifiers resolve to
    every same-file binding of that name, [M.f] resolves through the
    last module segment against both file modules (capitalized
    basenames) and literal sub-modules, and every identifier occurrence
    is an edge (so higher-order uses are kept).  Anything unresolvable —
    functor instantiations, parameters, stdlib — is an explicit
    {!Unknown} the rules interpret per their own soundness direction. *)

type callee =
  | Known of string list  (** candidate function ids, all of them edges *)
  | Unknown of string  (** flattened name for messages *)

type call = { callee : callee; name : string; loc : Ppxlib.Location.t }

type fn = {
  id : string;  (** [rel ^ "#" ^ dotted]; unique within a batch *)
  dotted : string;  (** module-qualified display name *)
  name : string;  (** plain binding name *)
  file : Rule.source_file;
  loc : Ppxlib.Location.t;  (** whole-binding span *)
  body : Ppxlib.expression;
  mutable calls : call list;  (** identifier occurrences, source order *)
}

type t

val of_batch : Rule.source_file list -> t
(** Build (or reuse — one-slot cache keyed on physical equality of the
    list) the call graph for a batch.  All flow rules in one engine run
    share the same graph. *)

val find : t -> string -> fn option
val functions : t -> fn list
(** In deterministic order: batch order, then source order. *)

val callers_of : t -> string -> string list
(** Reverse [Known] edges, in discovery order. *)

val resolve : t -> file:Rule.source_file -> Ppxlib.Longident.t -> callee
(** Resolve one identifier as it would be resolved during graph
    construction; used by rules that walk expressions themselves. *)

val bfs_path : t -> starts:string list -> goal:(string -> bool) -> string list option
(** Deterministic shortest witness path along [Known] edges from any of
    [starts] to a node satisfying [goal] (inclusive). *)

val pp_path : t -> string list -> string
(** Render a path as [A.f -> B.g -> ...] using dotted names. *)
