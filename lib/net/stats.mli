(** Message accounting.

    Counts messages and abstract payload units (for the cliff-edge
    protocol a unit is one opinion-vector entry, a good proxy for bytes
    on the wire), globally and per ordered node pair.  The locality
    checker (CD3) and the scaling experiments (X4/X5) read these
    counters. *)

open Cliffedge_graph

type t

type channel = {
  mutable count : int;  (** messages sent on the pair *)
  mutable flush : float;
  mutable floor : float;
  mutable recent : float list;
}
(** One ordered pair that carried traffic, created at its first send.
    [count] is this module's; the other fields are the delivery
    schedule {!Network} keeps per channel (see network.ml), held here so
    that a sender has one row of per-pair records, not one per module. *)

val create : unit -> t

val record_send : t -> src:Node_id.t -> dst:Node_id.t -> units:int -> unit
(** Every counter in this module is monotone non-decreasing (the stats
    qcheck property relies on it), so a negative [units] — which would
    let [units_sent] go backwards — is rejected.
    @raise Invalid_argument if [units < 0]; zero is legal (ARQ acks
    carry no payload). *)

val send_channel : t -> src:Node_id.t -> dst:Node_id.t -> units:int -> channel
(** {!record_send}, returning the pair's record. *)

val find_channel : t -> src:Node_id.t -> dst:Node_id.t -> channel
(** The pair's record.
    @raise Not_found if nothing was ever sent from [src] to [dst]. *)

val record_delivery : t -> unit

val record_drop : t -> unit
(** A message whose destination had crashed by delivery time. *)

val record_fault_drop : t -> unit
(** A message lost to the fault plan (drop draw or active link cut). *)

val record_duplicate : t -> unit
(** An extra copy injected by the fault plan. *)

val record_retransmit : t -> unit
(** An ARQ retransmission ({!Transport}). *)

val record_dedup : t -> unit
(** A duplicate frame suppressed by the ARQ receive window. *)

val sent : t -> int

val delivered : t -> int

val dropped : t -> int

val fault_dropped : t -> int
(** Messages lost to the fault plan; disjoint from {!dropped}. *)

val duplicated : t -> int

val retransmitted : t -> int

val deduped : t -> int

val units_sent : t -> int

val pairs : t -> (Node_id.t * Node_id.t) list
(** Ordered pairs that exchanged at least one message. *)

val pair_count : t -> src:Node_id.t -> dst:Node_id.t -> int

val communicating_nodes : t -> Node_set.t
(** Nodes that sent or were sent at least one message. *)

val pp : Format.formatter -> t -> unit
