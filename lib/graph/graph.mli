(** Undirected knowledge graphs.

    The system model of the paper (§2.2): a finite undirected graph
    [G = (Π, E)] where vertices are message-passing nodes and an edge
    means the two nodes know each other.  The graph is immutable; every
    simulated node shares the same value, matching the paper's assumption
    that nodes "can query [G] on demand, either by directly contacting
    live nodes, or using some underlying topology service for crashed
    nodes".

    Two backends share this interface.  A {e stored} graph keeps explicit
    adjacency sets ({!add_edge}, {!of_edges}).  An {e implicit} graph is
    backed by a pure neighbourhood kernel over the dense id range
    [0, n) ({!implicit}) and computes adjacency on demand, so
    million-node topologies cost nothing until queried; structural
    updates on an implicit graph raise — {!materialize} it first.  All
    geometric queries ([border], [connected_components], [bfs_distances],
    …) work identically on both. *)

type t
(** An immutable undirected graph.  No self-loops, no parallel edges. *)

val empty : t

val add_node : Node_id.t -> t -> t
(** Adds an isolated node (no-op when already present).
    @raise Invalid_argument on an implicit graph. *)

val add_edge : Node_id.t -> Node_id.t -> t -> t
(** Adds both endpoints and the undirected edge between them.
    @raise Invalid_argument on a self-loop or on an implicit graph. *)

val of_edges : (int * int) list -> t
(** Builds a stored graph from raw integer edges. *)

val of_edge_ids : (Node_id.t * Node_id.t) list -> t

val implicit :
  n:int ->
  degree:(int -> int) ->
  iter_neighbours:(int -> (int -> unit) -> unit) ->
  max_degree:int ->
  ?edge_count:int ->
  label:string ->
  unit ->
  t
(** [implicit ~n ~degree ~iter_neighbours ~max_degree ~label ()] is the
    graph on vertices [0, …, n - 1] whose adjacency is computed by the
    kernel: [iter_neighbours i f] must call [f] on each neighbour of [i]
    exactly once (any order, ids in [0, n), never [i] itself) and must
    agree with [degree i]; the relation must be symmetric.  [max_degree]
    is an upper bound on [degree] (exact for regular kernels — it is
    what {!max_degree} reports, without scanning all [n] vertices).
    When [edge_count] is omitted it is computed lazily as half the
    degree sum.  [label] is the printable description used by {!pp}.
    @raise Invalid_argument when [n < 1]. *)

val is_implicit : t -> bool

val materialize : t -> t
(** Expands an implicit graph into a stored one with identical vertices
    and edges (the identity on stored graphs).  Costs [O(n + m)] space —
    intended for differential testing and for small graphs that need
    structural updates. *)

val nodes : t -> Node_set.t
(** All vertices.  On an implicit graph this materializes (and memoizes)
    the full interval [{0, …, n - 1}] — [O(n / 63)] words; prefer
    {!node_count} or {!iter_neighbour_ids} on the large-N path. *)

val node_count : t -> int

val edge_count : t -> int

val edges : t -> (Node_id.t * Node_id.t) list
(** Each undirected edge once, as [(u, v)] with [u < v], sorted.
    On an implicit graph this enumerates the whole kernel — [O(n + m)]. *)

val mem_node : Node_id.t -> t -> bool

val mem_edge : Node_id.t -> Node_id.t -> t -> bool

val neighbours : t -> Node_id.t -> Node_set.t
(** [neighbours g p] is the border of the single node [p]: the set of
    nodes that know [p].  Empty when [p] is not in the graph.  Implicit
    backends materialize the set from the kernel and memoize it in a
    size-bounded cache. *)

val iter_neighbour_ids : t -> int -> (int -> unit) -> unit
(** [iter_neighbour_ids g i f] calls [f] on each neighbour id of node
    [i].  On an implicit graph this streams straight from the kernel
    without building a {!Node_set.t} — the allocation-free spine of the
    incremental geometry tracker.  No-op when [i] is not a vertex. *)

val degree : t -> Node_id.t -> int

val max_degree : t -> int
(** For implicit graphs, the kernel's declared upper bound. *)

val border : t -> Node_set.t -> Node_set.t
(** [border g s] is the paper's [border(S)]: nodes outside [S] with at
    least one neighbour inside [S]. *)

val closed_neighbourhood : t -> Node_set.t -> Node_set.t
(** [s] together with its border. *)

val induced : t -> Node_set.t -> t
(** Stored subgraph induced by a vertex subset (folds over [s] only, so
    it is cheap even on a million-node implicit graph). *)

val connected_components : t -> Node_set.t -> Node_set.t list
(** [connected_components g s] are the vertex sets of the connected
    components of the induced subgraph [G\[s\]] — the paper's
    [connectedComponents(S)].  Components are returned in increasing order
    of their minimum element. *)

val is_connected_subset : t -> Node_set.t -> bool
(** Whether the induced subgraph on the given (non-empty) subset is
    connected.  The empty set is not connected. *)

val is_region : t -> Node_set.t -> bool
(** A region is a non-empty connected subgraph of [G] (§2.2): a set of
    the graph's nodes that is its own single connected component.
    Answered from the memoized {!connected_components}, so asking again
    of a view already seen allocates nothing. *)

val is_connected : t -> bool
(** Whether the whole graph is connected (and non-empty). *)

val bfs_distances : t -> Node_id.t -> int Node_map.t
(** Hop distances from a source to every reachable node. *)

val ball : t -> Node_id.t -> radius:int -> Node_set.t
(** Nodes within the given hop distance of the source (including it). *)

val memo_resident_words : t -> int
(** Words currently held by the border/components/neighbour memo caches
    — the quantity their second-chance eviction bounds.  Exposed for
    the bench-gate ceiling assertions. *)

val pp : Format.formatter -> t -> unit
(** Summary rendering: node/edge counts and adjacency lists (stored
    backend) or the kernel label (implicit backend). *)

val pp_stats : Format.formatter -> t -> unit
(** One-line [nodes/edges/min-max degree] summary. *)
