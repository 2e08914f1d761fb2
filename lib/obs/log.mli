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
    single cursor is sound.

    Cost.  An event is stored as six words of ints and floats (its
    node, parent, kind tag and payloads, and its time), plus one word
    for its instance in a 32-event segment that records any instance,
    and a quarter of a word of segment headers and directory slots:
    recording allocates 6.25 minor words per event on a log of 4 096
    ([bench alloc]'s "obs: record one event").  The store holds no
    pointer but the instance views, so the caller's kind, parent option
    and boxed time die young: a log of 4 096 mixed events keeps 7.2
    words per event live.  Segments are allocated in the minor heap and
    never copied, and no growth forces a minor collection (DESIGN.md
    §10).  Readers pay instead: {!iter}, {!find} and {!to_list}
    build each {!Event.t} they return, and the field readers
    ({!kind}, {!time}, ...) build only the field.  {!find} and the
    field readers are O(1). *)

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

(** {2 Field readers}

    One field of the event with sequence id [seq], O(1), without
    building the {!Event.t}: what the library's own whole-log scans
    read.
    @raise Invalid_argument if no event has sequence id [seq]. *)

val kind : t -> int -> Event.kind

val time : t -> int -> float

val node : t -> int -> Node_id.t

val parent : t -> int -> int option

val instance : t -> int -> Node_set.t option

val to_list : t -> Event.t list
(** All events in sequence order. *)

val iter : t -> (Event.t -> unit) -> unit
(** Every event in sequence order. *)

val context : t -> int option
(** The event currently being handled, if any. *)

val with_context : t -> int -> (unit -> unit) -> unit
(** [with_context t seq f] runs [f] with the cursor set to [seq],
    restoring the previous cursor afterwards (exceptions included). *)

val pp : Format.formatter -> t -> unit
(** One {!Event.pp} line per event. *)
