(** Generic worklist fixpoint solver over a join-semilattice.

    The interprocedural rules (function summaries, reachability and
    taint closures) and the CFG dominator computation all instantiate
    this one solver.  Dependencies are discovered dynamically: each
    value the transfer function reads through its [get] argument is
    recorded, and the reader is re-queued when that value rises. *)

module type LATTICE = sig
  type t

  val bottom : t
  (** Least element; the initial value of every key. *)

  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Least upper bound.  Transfers must be monotone with respect to the
      order induced by [join] and the lattice must have finite height,
      otherwise {!Make.solve} raises {!Diverged}. *)
end

exception Diverged of string
(** Raised when the iteration budget is exhausted — a non-monotone
    transfer or an infinite-height lattice, i.e. a rule bug. *)

module Bool_lattice : LATTICE with type t = bool
(** The two-point lattice ([false] ⊑ [true], join = [(||)]) used by the
    reachability and taint closures. *)

module Make (L : LATTICE) : sig
  type stats = { iterations : int }

  val solve :
    keys:string list ->
    transfer:((string -> L.t) -> string -> L.t) ->
    (string -> L.t) * stats
  (** [solve ~keys ~transfer] iterates [transfer] to the least fixpoint
      and returns the solution (total: unseeded keys read as
      [L.bottom]).  The result does not depend on the order of [keys] —
      only the iteration count in [stats] does. *)
end
