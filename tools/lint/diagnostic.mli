(** A single lint finding with a precise source location. *)

type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  cnum : int;
  message : string;
}

val v : rule:string -> file:string -> line:int -> col:int -> string -> t
(** Position-addressed constructor for diagnostics that have no AST
    node (e.g. a missing interface file). *)

val make : rule:string -> file:string -> loc:Ppxlib.Location.t -> string -> t

val compare : t -> t -> int
(** File, then position, then rule id: the report order. *)

val to_string : t -> string
(** [file:line:col: [rule] message], the compiler-style line. *)
