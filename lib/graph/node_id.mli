(** Node identifiers.

    Nodes of the knowledge graph [G] are identified by small integers.
    Scenario front-ends may attach human-readable names (the world-city
    names of the paper's Fig. 1) through a {!Names.t} table without
    affecting the identifier itself. *)

type t
(** An opaque node identifier. *)

val of_int : int -> t
(** [of_int i] makes the identifier [i].
    @raise Invalid_argument if [i < 0]. *)

val to_int : t -> int
(** Integer value of an identifier. *)

val compare : t -> t -> int
(** Total order, compatible with the integer order. *)

val equal : t -> t -> bool

val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by identifier, holding only the ids a run
    touches, whatever their magnitude: the runner's nodes, the crash
    record, the detector's subscription rows, each graph's
    neighbour memo, and the channel rows of the network, the ARQ and
    the message counts (source -> destination -> the pair's record). *)

val row : 'a Tbl.t Tbl.t -> t -> 'a Tbl.t
(** [p]'s row of a two-level table, added empty on first use. *)

val pp : Format.formatter -> t -> unit
(** Prints as [n<i>], e.g. [n42]. *)

val to_string : t -> string

(** Optional human-readable names for pretty-printing scenarios. *)
module Names : sig
  type id := t

  type t
  (** A partial mapping from identifiers to display names. *)

  val empty : t

  val add : id -> string -> t -> t

  val of_list : (id * string) list -> t

  val find : t -> id -> string option

  val pp : t -> Format.formatter -> id -> unit
  (** [pp names] prints the node's name when known, its default rendering
      otherwise. *)
end
