(** Undirected knowledge graphs.

    The system model of the paper (§2.2): a finite undirected graph
    [G = (Π, E)] where vertices are message-passing nodes and an edge
    means the two nodes know each other.  The graph is immutable; every
    simulated node shares the same value, matching the paper's assumption
    that nodes "can query [G] on demand, either by directly contacting
    live nodes, or using some underlying topology service for crashed
    nodes".

    A graph is a vertex count, a vertex test and a neighbour iterator
    over int ids, with memos for the geometric queries, and every query
    is written once against that.  {!implicit} builds one over the id
    range [0, n) from a pure neighbourhood kernel, so a million-node
    topology costs nothing until queried; {!add_node}, {!add_edge},
    {!of_edges} and {!induced} build one over a persistent adjacency map
    keyed by id, which costs its members, whatever their magnitude.
    Extending a kernel graph builds that map from the kernel once. *)

type t
(** An immutable undirected graph.  No self-loops, no parallel edges. *)

val empty : t

val add_node : Node_id.t -> t -> t
(** Adds an isolated node (no-op when already present). *)

val add_edge : Node_id.t -> Node_id.t -> t -> t
(** Adds both endpoints and the undirected edge between them: a
    persistent-map update, [O(log n)], on a graph built from edges.  The
    first extension of a kernel graph builds its map, [O(n + m)].
    @raise Invalid_argument on a self-loop. *)

val of_edges : (int * int) list -> t
(** Builds a graph from raw integer edges. *)

val of_edge_ids : (Node_id.t * Node_id.t) list -> t

val implicit : n:int -> iter_neighbours:(int -> (int -> unit) -> unit) -> t
(** [implicit ~n ~iter_neighbours] is the graph on vertices
    [0, …, n - 1] whose adjacency is computed by the kernel:
    [iter_neighbours i f] must call [f] on each neighbour of [i] exactly
    once (any order, ids in [0, n), never [i] itself), and the relation
    must be symmetric.
    @raise Invalid_argument when [n < 1]. *)

val nodes : t -> Node_set.t
(** All vertices, built on first use and kept.  On a graph over
    [0, n) this is the full interval — [O(n / 63)] words; prefer
    {!node_count}, {!mem_node} or {!nth_node} on the large-N path. *)

val node_count : t -> int

val nth_node : t -> int -> Node_id.t
(** [nth_node g k] is the vertex of rank [k] in increasing id order, the
    element {!Node_set.random_element} picks from {!nodes} when it draws
    [k].  On a graph whose vertices are [0, n) it is [k], found without
    building {!nodes}.
    @raise Invalid_argument unless [0 <= k < node_count g]. *)

val edges : t -> (Node_id.t * Node_id.t) list
(** Each undirected edge once, as [(u, v)] with [u < v], sorted.
    Enumerates the whole graph — [O(n + m)]. *)

val mem_node : Node_id.t -> t -> bool

val mem_edge : Node_id.t -> Node_id.t -> t -> bool

val neighbours : t -> Node_id.t -> Node_set.t
(** [neighbours g p] is the border of the single node [p]: the set of
    nodes that know [p].  Empty when [p] is not in the graph.  Built
    from the neighbour iterator on first ask and memoized in a
    size-bounded cache. *)

val iter_neighbour_ids : t -> int -> (int -> unit) -> unit
(** [iter_neighbour_ids g i f] calls [f] on each neighbour id of node
    [i], straight from the iterator, without building a {!Node_set.t} —
    the spine of the incremental geometry tracker.  No-op when [i] is
    not a vertex. *)

val border : t -> Node_set.t -> Node_set.t
(** [border g s] is the paper's [border(S)]: nodes outside [S] with at
    least one neighbour inside [S]. *)

val closed_neighbourhood : t -> Node_set.t -> Node_set.t
(** [s] together with its border. *)

val induced : t -> Node_set.t -> t
(** Subgraph induced by a vertex subset, over an adjacency map (folds
    over [s] only, so it is cheap even on a million-node kernel
    graph). *)

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

val memo_resident_words : t -> int
(** Words currently held by the border/components/neighbour memo caches
    — the quantity their second-chance eviction bounds.  Exposed for
    the bench-gate ceiling assertions. *)
