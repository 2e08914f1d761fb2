(** Topology generators.

    Deterministic builders for the network shapes used by the examples,
    tests and experiments: regular overlays (rings, grids, tori), dense
    references (complete, star), and seeded random families
    (Erdős–Rényi, Watts–Strogatz, Barabási–Albert, random geometric).
    Random families take a {!Cliffedge_prng.Prng.t} so that a topology is
    a pure function of its seed.

    Every builder returns the one {!Graph.t}.  The others store their
    edges in an adjacency map; the [implicit_*] builders hand
    {!Graph.implicit} a kernel instead: neighbourhoods are pure
    functions of the node id (and a seed), so a million-node topology
    costs nothing until queried.  [implicit_ring]/[implicit_torus]
    produce edge-for-edge the same graphs as their stored counterparts;
    the implicit random families follow the same distributions but
    hash-based placement, so they differ sample-wise from the
    PRNG-driven builders. *)

type spec =
  | Ring of int
  | Path of int
  | Grid of int * int
  | Torus of int * int
  | Complete of int
  | Star of int
  | Binary_tree of int
  | Erdos_renyi of int * float
  | Watts_strogatz of int * int * float
  | Barabasi_albert of int * int
  | Random_geometric of int * float
  | Implicit_ring of int
  | Implicit_torus of int * int
  | Implicit_geometric of int * float
  | Implicit_power_law of int
      (** Symbolic description of a topology, convenient for sweeps and
          command lines. *)

val ring : int -> Graph.t
(** Cycle on [n >= 3] nodes. *)

val path : int -> Graph.t
(** Line on [n >= 2] nodes. *)

val grid : int -> int -> Graph.t
(** [grid w h]: 4-neighbour mesh, [w, h >= 1], [w*h >= 2]. *)

val torus : int -> int -> Graph.t
(** [torus w h]: wrap-around 4-neighbour mesh, [w, h >= 3]. *)

val complete : int -> Graph.t
(** Clique on [n >= 2] nodes. *)

val star : int -> Graph.t
(** Hub node [0] plus [n - 1 >= 1] leaves. *)

val binary_tree : int -> Graph.t
(** Complete binary heap-shaped tree on [n >= 2] nodes. *)

val erdos_renyi : Cliffedge_prng.Prng.t -> int -> p:float -> Graph.t
(** [G(n, p)] made connected: a random Hamiltonian backbone path is added
    first so that every sample is connected, then each remaining edge is
    kept with probability [p]. *)

val watts_strogatz : Cliffedge_prng.Prng.t -> int -> k:int -> beta:float -> Graph.t
(** Small-world rewiring of a ring lattice where each node is linked to
    its [k] nearest neighbours ([k] even, [k < n]); each lattice edge is
    rewired with probability [beta], skipping rewirings that would create
    duplicates. *)

val barabasi_albert : Cliffedge_prng.Prng.t -> int -> m:int -> Graph.t
(** Preferential attachment: starts from a clique on [m + 1] nodes, each
    new node attaches to [m] distinct existing nodes chosen proportionally
    to degree. *)

val random_geometric : Cliffedge_prng.Prng.t -> int -> radius:float -> Graph.t
(** Nodes placed uniformly in the unit square, linked when within
    [radius]; a backbone path over the node ordering by x-coordinate is
    added when needed to guarantee connectivity. *)

val implicit_ring : int -> Graph.t
(** Generator-backed cycle on [n >= 3] nodes; same edge set as
    {!ring}. *)

val implicit_torus : int -> int -> Graph.t
(** Generator-backed wrap-around mesh, [w, h >= 3]; same edge set as
    {!torus}. *)

val implicit_geometric : seed:int -> int -> radius:float -> Graph.t
(** Cellular random-geometric kernel: node [i] sits at a hash-jittered
    position inside cell [i mod g²] of a [g × g] grid with cell side
    [1/g >= radius], nodes are linked when within [radius], and a
    neighbour query scans only the 3×3 cell block around [i] —
    [O(9 n / g²)] per query, independent of total [n] for fixed
    density.  Connectivity is not guaranteed (as with any geometric
    sample); confined experiments work inside a chosen component. *)

val implicit_power_law : seed:int -> int -> Graph.t
(** Deterministic configuration-model kernel with a [γ ≈ 2] tail
    ([P(deg >= d) ∝ 1/d], one hub of stub degree [Θ(n)]) plus a ring backbone
    for connectivity, [n >= 8].  Ranks and stub matching come from two
    seeded Feistel permutations, so a neighbour query touches only the
    queried node's own stubs. *)

val build : Cliffedge_prng.Prng.t -> spec -> Graph.t
(** Builds the graph a symbolic description names.  For the seeded implicit
    families, one integer is drawn from the PRNG to fix the kernel
    seed. *)

val spec_of_string : string -> (spec, string) result
(** Parses descriptions such as ["ring:100"], ["grid:10x10"],
    ["torus:8x8"], ["er:200:0.05"], ["ws:100:6:0.1"], ["ba:150:3"],
    ["geo:100:0.15"], ["complete:30"], ["star:20"], ["path:50"],
    ["tree:63"] — and the implicit families ["iring:1000000"],
    ["itorus:1000x1000"], ["igeo:100000:0.01"], ["iplaw:100000"].
    Sizes and parameters go through the same bounds check the builders
    raise on, so every accepted spec builds: ["ring:2"] is an [Error]
    naming the bound, not a deferred [Invalid_argument]. *)

val pp_spec : Format.formatter -> spec -> unit
(** Prints the description {!spec_of_string} parses back to the same
    spec. *)

val pp_spec_float : Format.formatter -> float -> unit
(** Prints a float so that [float_of_string] reads back the same value:
    as [%g] when that is exact, otherwise as the shortest of [%.15g],
    [%.16g] and [%.17g] that is.  The spec printers share it: {!pp_spec},
    [Latency.pp] and [Faults.pp]. *)
