(** Seeded, per-ordered-pair fault plans for the network.

    The paper assumes asynchronous {e reliable FIFO} channels (§2.2);
    {!Network} implements them by construction.  A fault plan describes
    how a wire may misbehave instead — message loss, duplication,
    bounded reordering, and timed link partitions — so that the
    reproduction can measure what the channel assumption actually costs
    (experiment X16) and demonstrate that the ARQ transport
    ({!Transport}), not luck, is what restores the paper's contract.

    All randomness is drawn from the network's {!Cliffedge_prng.Prng}
    stream, so a faulty run is as seed-deterministic as a reliable
    one. *)

open Cliffedge_graph

type cut = {
  from_time : float;  (** partition start (virtual time, inclusive) *)
  until_time : float;  (** partition end (exclusive); [infinity] = permanent *)
  a : Node_id.t;
  b : Node_id.t;  (** both ordered directions between [a] and [b] are severed *)
}

type t = {
  drop : float;  (** per-message loss probability in [\[0, 1\]] *)
  dup : float;  (** per-message duplication probability in [\[0, 1\]] *)
  reorder : int;
      (** bounded reordering: a message may overtake at most this many
          of its predecessors on the same ordered channel ([0] = FIFO) *)
  cuts : cut list;  (** timed link partitions *)
}

val none : t
(** The empty plan: no loss, no duplication, FIFO, no partitions. *)

val is_pass_through : t -> bool
(** [true] iff the plan cannot affect any message; {!Network} then takes
    its reliable-FIFO path, PRNG stream included. *)

val cut_active : t -> src:Node_id.t -> dst:Node_id.t -> time:float -> bool
(** Is some partition severing the (unordered) link between [src] and
    [dst] at [time]? *)

val of_string : string -> (t, string) result
(** Parses a comma-separated clause list:
    ["drop:0.1,dup:0.02,reorder:3,cut:12-30:4-9"].

    - [drop:P] — loss probability;
    - [dup:P] — duplication probability;
    - [reorder:K] — reordering bound (non-FIFO jitter);
    - [cut:T1-T2:A-B] — partition nodes [A] and [B] (distinct integer
      ids) from virtual time [T1] until [T2]; [T2] may be [inf] for a
      permanent partition.  Repeatable.

    Parameters are validated in the style of {!Latency.of_string}:
    probabilities outside [\[0, 1\]], non-finite or negative values,
    negative reorder bounds, empty cut windows and a cut from a node to
    itself are rejected with a descriptive error.  Whether both
    endpoints are nodes of the topology is the caller's check. *)

val pp : Format.formatter -> t -> unit
(** Round-trips with {!of_string}; prints ["none"] for the empty plan. *)
