(** Opinions and opinion vectors (Algorithm 1).

    Each border node of a proposed view holds an opinion: it {e accepts}
    the view with a proposal value, or {e rejects} it in favour of a
    higher-ranked view.  The paper's [⊥] ("no opinion known yet") is
    represented sparsely: a vector is a map from node to opinion and an
    absent binding is [⊥].  Merging (line 24 of Algorithm 1) only fills
    [⊥] slots — an opinion, once known, is immutable, which Lemma 1 and
    Lemma 3 of the paper rely on. *)

open Cliffedge_graph

type 'v t =
  | Accept of 'v  (** the paper's [(accept, v)] *)
  | Reject

val equal : ('v -> 'v -> bool) -> 'v t -> 'v t -> bool

val pp : (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v t -> unit

(** Sparse opinion vectors: absent = [⊥].

    Represented as sorted parallel arrays (node ids / opinions), shared
    immutably after construction: merges are single merge-joins over
    contiguous memory and return the left vector {e physically
    unchanged} when [incoming] adds no new bindings, so the steady-state
    round exchange allocates nothing. *)
module Vector : sig
  type 'v opinion := 'v t

  type 'v t

  val empty : 'v t

  val singleton : Node_id.t -> 'v opinion -> 'v t

  val of_list : (Node_id.t * 'v opinion) list -> 'v t
  (** Builds a vector from bindings in any order; on duplicate nodes
      the last binding wins (as [Node_map.of_list] did). *)

  val get : 'v t -> Node_id.t -> 'v opinion option
  (** [None] is the paper's [⊥]. *)

  val merge : 'v t -> incoming:'v t -> 'v t
  (** Fills [⊥] slots of the first vector from [incoming]; existing
      bindings win (line 24 only updates [⊥] values). *)

  val iter : (Node_id.t -> 'v opinion -> unit) -> 'v t -> unit
  (** In increasing node order. *)

  val fold : (Node_id.t -> 'v opinion -> 'a -> 'a) -> 'v t -> 'a -> 'a
  (** In increasing node order. *)

  val rejector_in : 'v t -> Node_set.t -> bool
  (** [rejector_in t set] iff some [Reject] entry's node is a member of
      [set].  Allocation-free (no predicate closure); lets the delivery
      path skip the excusal rebuild when no rejector is still
      awaited. *)

  val rejectors : 'v t -> Node_set.t
  (** Nodes whose entry is [Reject]. *)

  val is_full : border:Node_set.t -> 'v t -> bool
  (** No [⊥] left: every border node has a known opinion. *)

  val accepts : border:Node_set.t -> 'v t -> (Node_id.t * 'v) list option
  (** [Some assocs] when the vector is full and unanimous accepts, with
      the accepted values in increasing node order; [None] otherwise
      (line 34). *)

  val known : 'v t -> int
  (** Number of non-[⊥] entries, the wire-size proxy for accounting. *)

  val equal : ('v -> 'v -> bool) -> 'v t -> 'v t -> bool

  val pp :
    (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v t -> unit
end
