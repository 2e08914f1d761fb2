(** Finite sets of node identifiers.

    Node sets are the currency of the whole system: crashed regions,
    borders, waiting sets and proposed views are all values of this type.
    The module exposes the operations of the standard functorial set
    ([Set.S]) that the repository calls, with their [Set.S] meaning
    (plus the helpers the protocol and its checker need), but is backed
    by an immutable chunked bitset — an [int array] of
    63-bit words in canonical form — so [union], [inter], [diff],
    [subset], [cardinal] and friends are word-parallel loops instead of
    AVL-tree walks.  Identifiers are dense small integers throughout the
    repository, which makes this representation both compact and fast.

    [compare] is a strict total order on sets, used as the final
    tie-break of the region ranking (§3.1 of the paper leaves that order
    free); it implements exactly the lexicographic element order of
    [Set.Make(Node_id).compare], and all iteration is in ascending
    element order, so the swap is observationally equivalent to the old
    tree-backed module. *)

type elt = Node_id.t

type t

(** {1 Set operations}

    As in [Set.S]. *)

val empty : t
val is_empty : t -> bool
val mem : elt -> t -> bool
val add : elt -> t -> t
val singleton : elt -> t
val remove : elt -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val disjoint : t -> t -> bool
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val cardinal : t -> int
val iter : (elt -> unit) -> t -> unit
val fold : (elt -> 'acc -> 'acc) -> t -> 'acc -> 'acc
val for_all : (elt -> bool) -> t -> bool
val exists : (elt -> bool) -> t -> bool
val filter : (elt -> bool) -> t -> t
val elements : t -> elt list
val of_list : elt list -> t
val min_elt_opt : t -> elt option
val max_elt_opt : t -> elt option

(** {1 Repository helpers} *)

val hash : t -> int
(** A fingerprint of the set contents; equal sets hash equally.  Every
    bit of every word reaches the low bits that [Hashtbl.Make] buckets
    on, so a memo lookup is one probe.  Used to key memoized border and
    component geometry.  Allocation-free. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by set contents, through {!equal} and {!hash}:
    the geometry memos, and every table keyed by a proposed view. *)

val of_ints : int list -> t
(** [of_ints is] builds a set from raw integer identifiers. *)

val words : t -> int
(** Number of machine words backing the set — its resident size, the
    unit the graph layer's memo caches budget their eviction in.  Sets
    are dense from zero, so a set containing node [i] weighs at least
    [i / 63 + 1] words regardless of its cardinality. *)

val full : int -> t
(** [full n] is the interval [{0, ..., n - 1}], built word-wise in
    [O(n / 63)].  The vertex set of an implicit topology. *)

val to_ints : t -> int list
(** Sorted raw integer identifiers of the members. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{n1, n2, ...}]. *)

val pp_named : Node_id.Names.t -> Format.formatter -> t -> unit
(** Like {!pp} but resolves display names. *)

val to_string : t -> string

val random_subset : Cliffedge_prng.Prng.t -> t -> keep_probability:float -> t
(** Keeps each element independently with the given probability. *)

val random_element : Cliffedge_prng.Prng.t -> t -> elt
(** Uniform draw.
    @raise Invalid_argument on the empty set. *)
