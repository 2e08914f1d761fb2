(** Fault-pattern generators.

    Seeded builders of the crash workloads the experiments and the
    randomized property tests inject: single connected regions, multiple
    isolated regions, chains of adjacent faulty domains (Fig. 2 shapes)
    and growing cascades (Fig. 1(b) shapes). *)

open Cliffedge_graph

val check_size : Graph.t -> size:int -> (unit, string) result
(** [Ok ()] iff a region of [size] nodes fits in the graph and leaves a
    correct node: [size] within [\[1, nodes - 1\]], the bound the
    random region builders below raise on.  The error names the bound,
    so a front end can reject a size before building anything. *)

val random_node : Cliffedge_prng.Prng.t -> Graph.t -> Node_id.t
(** {!Node_set.random_element} over {!Graph.nodes}, PRNG stream
    included, without building an implicit graph's node set. *)

val connected_region :
  Cliffedge_prng.Prng.t -> Graph.t -> size:int -> Node_set.t
(** A uniform-ish random connected region of [size] nodes, grown from
    a random seed node by repeatedly absorbing a random border node.
    Guaranteed to leave at least one correct node.  Returns fewer than
    [size] nodes only when the seed node's component is exhausted (a
    disconnected topology); the region is then that whole component,
    and its border is empty.
    @raise Invalid_argument when [size] is not in [\[1, nodes - 1\]]. *)

val connected_region_from :
  Cliffedge_prng.Prng.t -> Graph.t -> seed_node:Node_id.t -> size:int -> Node_set.t
(** As {!connected_region} but grown from a fixed node (the region is
    still random beyond the seed), with the same shortfall when
    [seed_node]'s component has fewer than [size] nodes. *)

val compact_region : Graph.t -> seed_node:Node_id.t -> size:int -> Node_set.t
(** Fully deterministic connected region: grown from [seed_node] by
    always absorbing the minimum-id border node.  Touches only the
    region and its border — no PRNG, no whole-graph scan — so it is the
    region builder for million-node implicit topologies, at any seed id.
    Returns fewer than [size] nodes only when the component is
    exhausted.
    @raise Invalid_argument when [size < 1]. *)

val isolated_regions :
  Cliffedge_prng.Prng.t -> Graph.t -> count:int -> size:int -> Node_set.t list option
(** [count] regions of [size] nodes whose closed neighbourhoods are
    pairwise disjoint, i.e. distinct faulty {e clusters} with disjoint
    borders — agreements on them must be fully independent.  [None] when
    the sampler cannot place them (graph too small/dense); callers
    should retry with another seed or fewer regions. *)

val adjacent_chain :
  Cliffedge_prng.Prng.t ->
  Graph.t ->
  domains:int ->
  size:int ->
  Node_set.t list option
(** A chain of [domains] faulty domains of [size] nodes each, where
    consecutive domains share at least one border node (the paper's
    adjacency [F ‖ H]) while remaining disconnected from each other —
    one faulty cluster, as in Fig. 2.  [None] when placement fails. *)

type schedule = (float * Node_id.t) list
(** Crash schedule: (virtual time, node) pairs. *)

val crash_at : float -> Node_set.t -> schedule
(** Crashes a whole region at one instant. *)

val staggered :
  Cliffedge_prng.Prng.t -> start:float -> spread:float -> Node_set.t -> schedule
(** Crashes each node of a region at a uniform time in
    [\[start, start + spread\]] — failures that are correlated but not
    simultaneous. *)

val cascade :
  Cliffedge_prng.Prng.t ->
  Graph.t ->
  seed_region:Node_set.t ->
  depth:int ->
  start:float ->
  interval:float ->
  schedule * Node_set.t
(** Fig. 1(b) generalized: crashes [seed_region] at [start], then every
    [interval] crashes one further node chosen uniformly from the current
    region's correct border, [depth] times (stopping early if the border
    empties or only one correct node would remain).  Returns the schedule
    and the final crashed region. *)
