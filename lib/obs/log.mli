(** The causal event log of one run.

    An append-only sequence of {!Event.t}; the sequence id of an event
    is its index, so ids are dense, monotone, and stable across
    identically-seeded runs — two runs of the same scenario produce the
    same log, byte for byte (see the determinism suite).

    The [context] cursor threads causality across module boundaries:
    the substrate sets it to the delivery (or suspicion) event it is
    about to hand to the runner, and anything recorded while the
    handler runs — sends, proposals — can use it as causal parent.
    Recording is synchronous and the simulation single-threaded, so a
    single cursor is sound. *)

open Cliffedge_graph

type t

val create : unit -> t

val record :
  t ->
  time:float ->
  node:Node_id.t ->
  ?instance:Node_set.t ->
  ?parent:int ->
  Event.kind ->
  int
(** Appends an event and returns its sequence id.
    @raise Invalid_argument if [time] is NaN or [parent] is not the id
    of an already-recorded event (this is what makes "parents precede
    children" an invariant rather than a convention). *)

val length : t -> int

val find : t -> int -> Event.t option
(** Event by sequence id, O(1). *)

val to_list : t -> Event.t list
(** All events in sequence order. *)

val iter : t -> (Event.t -> unit) -> unit

val context : t -> int option
(** The event currently being handled, if any. *)

val with_context : t -> int -> (unit -> unit) -> unit
(** [with_context t seq f] runs [f] with the cursor set to [seq],
    restoring the previous cursor afterwards (exceptions included). *)

val pp : Format.formatter -> t -> unit
(** One {!Event.pp} line per event. *)
