(* ------------------------------------------------------------------ *)
(* Second-chance clock cache, capped by resident words.

   The border/components memos used to reset wholesale once they held
   8192 entries.  Under a crash cascade at large N the working set
   crosses any entry-count cap every few queries, so the hit rate
   collapsed to ~0 right when the memo mattered most — and counting
   entries says nothing about memory, which grows with set content.
   This cache evicts one cold entry at a time
   (classic second-chance: a hit sets the reference bit, the clock hand
   clears it and gives the entry one more lap before eviction) and
   bounds the *sum of resident words* of keys and values, so the memo
   can neither thrash nor balloon. *)
module Clock (H : Hashtbl.S) = struct
  type 'v entry = {
    key : H.key;
    value : 'v;
    weight : int;  (* resident words of key + value *)
    mutable live : bool;  (* referenced since the hand last passed *)
  }

  type 'v t = {
    tbl : 'v entry H.t;
    ring : 'v entry Queue.t;  (* clock order; each entry appears once *)
    cap : int;  (* max resident words *)
    mutable resident : int;
  }

  let create cap = { tbl = H.create 64; ring = Queue.create (); cap; resident = 0 }

  (* Raises [Not_found] on a miss.  The hit path must not allocate —
     the protocol queries [border] on every delivery, so even a single
     [Some] per hit shows up in the allocation ratchet.  Callers pair
     this with [match ... with exception Not_found] so the handler
     scopes to the lookup alone, not the recompute. *)
  let find_exn t k =
    let e = H.find t.tbl k in
    e.live <- true;
    e.value

  (* Advance the hand until residency fits: a live entry gets its bit
     cleared and one more lap, a cold one is evicted.  Terminates
     because every pass either shrinks the ring or turns a live entry
     cold. *)
  let rec evict t =
    if t.resident > t.cap && not (Queue.is_empty t.ring) then begin
      let e = Queue.pop t.ring in
      if e.live then begin
        e.live <- false;
        Queue.push e t.ring
      end
      else begin
        H.remove t.tbl e.key;
        t.resident <- t.resident - e.weight
      end;
      evict t
    end

  let add t k v ~weight =
    if not (H.mem t.tbl k) then begin
      let e = { key = k; value = v; weight; live = false } in
      H.replace t.tbl k e;
      Queue.push e t.ring;
      t.resident <- t.resident + weight;
      evict t
    end

  let resident t = t.resident
end

module Set_cache = Clock (Node_set.Tbl)
module Id_cache = Clock (Node_id.Tbl)

(* Per-memo residency budget: 2^15 words (256 KiB of payload) holds the
   few dozen distinct views a run touches even at million-node scale,
   while keeping the worst case bounded by memory, not entry count. *)
let cache_cap_words = 1 lsl 15

(* ------------------------------------------------------------------ *)
(* Representation: stored adjacency, or a generator-backed kernel.

   An implicit graph computes neighbourhoods on demand from a pure
   kernel over the dense id range [0, n): the paper's nodes "query G on
   demand ... using some underlying topology service", so nothing
   forces the simulator to materialize a million adjacency sets to run
   a locality-confined protocol on them.  Every geometric query below
   goes through [neighbours]/[iter_neighbour_ids] and therefore works
   on both backends; structural updates require materializing first. *)
type kernel = {
  k_label : string;  (* printable description, e.g. "ring:1000000" *)
  k_n : int;  (* vertices are exactly the ids [0, k_n) *)
  k_degree : int -> int;
  k_iter : int -> (int -> unit) -> unit;  (* neighbour ids, no order promise *)
  k_max_degree : int;  (* upper bound; exact for regular kernels *)
}

type repr = Adjacency of Node_set.t Node_map.t | Implicit of kernel

(* Query-acceleration structures, built lazily on first geometric query:
   adjacency as a plain array indexed by node id (stored backend only),
   and clock-capped memos for [border] / [connected_components] keyed by
   set fingerprint — the protocol recomputes [border cfg.graph view] on
   every message delivery and the checker on every decision/property
   pair, almost always on a handful of distinct views.  Implicit graphs
   additionally memo materialized neighbour sets per node id. *)
type caches = {
  borders : Node_set.t Set_cache.t;
  components : Node_set.t list Set_cache.t;
  neigh : Node_set.t Id_cache.t;
}

type t = {
  repr : repr;
  edge_count : int Lazy.t;
  mutable dense : Node_set.t array option;
  mutable all : Node_set.t option;
  mutable caches : caches option;
}

let mk adjacency edge_count =
  {
    repr = Adjacency adjacency;
    edge_count = Lazy.from_val edge_count;
    dense = None;
    all = None;
    caches = None;
  }

let empty = mk Node_map.empty 0

let implicit ~n ~degree ~iter_neighbours ~max_degree ?edge_count ~label () =
  if n < 1 then invalid_arg "Graph.implicit: need n >= 1";
  let kernel =
    { k_label = label; k_n = n; k_degree = degree; k_iter = iter_neighbours;
      k_max_degree = max_degree }
  in
  let edge_count =
    match edge_count with
    | Some e -> Lazy.from_val e
    | None ->
        lazy
          (let doubled = ref 0 in
           for i = 0 to n - 1 do
             doubled := !doubled + degree i
           done;
           !doubled / 2)
  in
  { repr = Implicit kernel; edge_count; dense = None; all = None; caches = None }

let is_implicit t = match t.repr with Implicit _ -> true | Adjacency _ -> false

let caches_of t =
  match t.caches with
  | Some c -> c
  | None ->
      let c =
        {
          borders = Set_cache.create cache_cap_words;
          components = Set_cache.create cache_cap_words;
          neigh = Id_cache.create cache_cap_words;
        }
      in
      t.caches <- Some c;
      c

let dense_of t a =
  match t.dense with
  | Some adj -> adj
  | None ->
      let width =
        Node_map.fold (fun p _ acc -> Int.max acc (Node_id.to_int p + 1)) a 0
      in
      let adj = Array.make width Node_set.empty in
      Node_map.iter (fun p s -> adj.(Node_id.to_int p) <- s) a;
      t.dense <- Some adj;
      adj

let kernel_neighbours k i =
  let acc = ref Node_set.empty in
  k.k_iter i (fun q -> acc := Node_set.add (Node_id.of_int q) !acc);
  !acc

let neighbours t p =
  match t.repr with
  | Adjacency a -> (
      match t.dense with
      | Some adj ->
          let i = Node_id.to_int p in
          if i < Array.length adj then adj.(i) else Node_set.empty
      | None -> (
          match Node_map.find_opt p a with
          | Some s -> s
          | None -> Node_set.empty))
  | Implicit k ->
      let i = Node_id.to_int p in
      if i >= k.k_n then Node_set.empty
      else
        let c = caches_of t in
        (match Id_cache.find_exn c.neigh p with
        | s -> s
        | exception Not_found ->
            let s = kernel_neighbours k i in
            Id_cache.add c.neigh p s ~weight:(Node_set.words s + 1);
            s)

let iter_neighbour_ids t i f =
  match t.repr with
  | Implicit k -> if i >= 0 && i < k.k_n then k.k_iter i f
  | Adjacency _ ->
      Node_set.iter
        (fun q -> f (Node_id.to_int q))
        (neighbours t (Node_id.of_int i))

let mem_edge p q t = Node_set.mem q (neighbours t p)

let structural t op =
  match t.repr with
  | Adjacency a -> a
  | Implicit _ ->
      invalid_arg (op ^ ": graph is implicit (Graph.materialize it first)")

let add_node p t =
  let a = structural t "Graph.add_node" in
  if Node_map.mem p a then t
  else mk (Node_map.add p Node_set.empty a) (Lazy.force t.edge_count)

let add_edge p q t =
  if Node_id.equal p q then invalid_arg "Graph.add_edge: self-loop";
  ignore (structural t "Graph.add_edge");
  if mem_edge p q t then t
  else
    let t = add_node p (add_node q t) in
    let a = structural t "Graph.add_edge" in
    let link x y adjacency =
      Node_map.add x (Node_set.add y (Node_map.find x adjacency)) adjacency
    in
    mk (link p q (link q p a)) (Lazy.force t.edge_count + 1)

let of_edge_ids l = List.fold_left (fun g (p, q) -> add_edge p q g) empty l

let of_edges l =
  of_edge_ids (List.map (fun (i, j) -> (Node_id.of_int i, Node_id.of_int j)) l)

let nodes t =
  match t.all with
  | Some s -> s
  | None ->
      let s =
        match t.repr with
        | Adjacency a -> Node_map.keys a
        | Implicit k -> Node_set.full k.k_n
      in
      t.all <- Some s;
      s

(* A stored graph answers from its cached vertex set: a search over a
   few words rather than a map descent through the functor's
   comparator, for the checker's per-node liveness test. *)
let mem_node p t =
  match t.repr with
  | Adjacency _ -> Node_set.mem p (nodes t)
  | Implicit k -> Node_id.to_int p < k.k_n

let node_count t =
  match t.repr with Adjacency a -> Node_map.cardinal a | Implicit k -> k.k_n

let edge_count t = Lazy.force t.edge_count

let compare_edge (p1, q1) (p2, q2) =
  let c = Node_id.compare p1 p2 in
  if c <> 0 then c else Node_id.compare q1 q2

let edges t =
  match t.repr with
  | Adjacency a ->
      Node_map.fold
        (fun p neigh acc ->
          Node_set.fold
            (fun q acc -> if Node_id.compare p q < 0 then (p, q) :: acc else acc)
            neigh acc)
        a []
      |> List.sort compare_edge
  | Implicit k ->
      let acc = ref [] in
      for i = 0 to k.k_n - 1 do
        k.k_iter i (fun j ->
            if i < j then acc := (Node_id.of_int i, Node_id.of_int j) :: !acc)
      done;
      List.sort compare_edge !acc

let degree t p =
  match t.repr with
  | Adjacency _ -> Node_set.cardinal (neighbours t p)
  | Implicit k ->
      let i = Node_id.to_int p in
      if i >= k.k_n then 0 else k.k_degree i

let max_degree t =
  match t.repr with
  | Adjacency a ->
      Node_map.fold (fun _ neigh acc -> Int.max acc (Node_set.cardinal neigh)) a 0
  | Implicit k -> k.k_max_degree

(* Materialize a stored adjacency for the Adjacency backend before a
   geometric query: [neighbours] then indexes an array instead of
   walking the map per node. *)
let warm t = match t.repr with Adjacency a -> ignore (dense_of t a) | Implicit _ -> ()

let border_uncached t s =
  Node_set.diff
    (Node_set.fold (fun p acc -> Node_set.union acc (neighbours t p)) s
       Node_set.empty)
    s

let border t s =
  if Node_set.is_empty s then Node_set.empty
  else begin
    warm t;
    let c = caches_of t in
    match Set_cache.find_exn c.borders s with
    | b -> b
    | exception Not_found ->
        let b = border_uncached t s in
        Set_cache.add c.borders s b ~weight:(Node_set.words s + Node_set.words b);
        b
  end

let closed_neighbourhood t s = Node_set.union s (border t s)

let induced t s =
  let adjacency =
    Node_set.fold
      (fun p acc -> Node_map.add p (Node_set.inter (neighbours t p) s) acc)
      s Node_map.empty
  in
  let doubled =
    Node_map.fold (fun _ neigh acc -> acc + Node_set.cardinal neigh) adjacency 0
  in
  mk adjacency (doubled / 2)

let materialize t =
  match t.repr with
  | Adjacency _ -> t
  | Implicit k ->
      let g = ref empty in
      for i = 0 to k.k_n - 1 do
        g := add_node (Node_id.of_int i) !g
      done;
      for i = 0 to k.k_n - 1 do
        k.k_iter i (fun j ->
            if i < j then g := add_edge (Node_id.of_int i) (Node_id.of_int j) !g)
      done;
      !g

(* Breadth-first exploration of the component of [start] inside [s]. *)
let component_of t s start =
  let rec grow frontier seen =
    if Node_set.is_empty frontier then seen
    else
      let next =
        Node_set.fold
          (fun p acc -> Node_set.union acc (Node_set.inter (neighbours t p) s))
          frontier Node_set.empty
      in
      let next = Node_set.diff next seen in
      grow next (Node_set.union seen next)
  in
  let start_set = Node_set.singleton start in
  grow start_set start_set

(* Clip stray ids without touching [nodes t] (whose bitset is O(N) for
   an implicit graph): membership is checked element-wise only when the
   set could contain ids outside the graph. *)
let clip t s =
  match t.repr with
  | Adjacency _ -> Node_set.inter s (nodes t)
  | Implicit k -> (
      match Node_set.max_elt_opt s with
      | Some top when Node_id.to_int top >= k.k_n ->
          Node_set.filter (fun p -> Node_id.to_int p < k.k_n) s
      | Some _ | None -> s)

let components_uncached t s =
  let rec loop remaining acc =
    match Node_set.min_elt_opt remaining with
    | None -> List.rev acc
    | Some start ->
        let comp = component_of t s start in
        loop (Node_set.diff remaining comp) (comp :: acc)
  in
  loop (clip t s) []

let connected_components t s =
  warm t;
  let c = caches_of t in
  match Set_cache.find_exn c.components s with
  | cs -> cs
  | exception Not_found ->
      let cs = components_uncached t s in
      let weight =
        List.fold_left
          (fun acc comp -> acc + Node_set.words comp)
          (Node_set.words s) cs
      in
      Set_cache.add c.components s cs ~weight;
      cs

let is_connected_subset t s =
  (not (Node_set.is_empty s))
  && Node_set.equal (clip t s) s
  &&
  match Node_set.min_elt_opt s with
  | None -> false
  | Some start -> Node_set.equal (component_of t s start) s

(* CD2 asks this once per decision, of views that recur: answered from
   the components memo, so a view already seen costs one lookup.  The
   components clip ids outside the graph, so such a set is never its
   own single component. *)
let is_region t s =
  (not (Node_set.is_empty s))
  && match connected_components t s with [ c ] -> Node_set.equal c s | _ -> false

let is_connected t = is_connected_subset t (nodes t)

let bfs_distances t source =
  warm t;
  let rec grow frontier dist acc =
    if Node_set.is_empty frontier then acc
    else
      let next =
        Node_set.fold
          (fun p acc -> Node_set.union acc (neighbours t p))
          frontier Node_set.empty
      in
      let next = Node_set.filter (fun p -> not (Node_map.mem p acc)) next in
      let acc = Node_set.fold (fun p acc -> Node_map.add p (dist + 1) acc) next acc in
      grow next (dist + 1) acc
  in
  if not (mem_node source t) then Node_map.empty
  else grow (Node_set.singleton source) 0 (Node_map.singleton source 0)

let ball t source ~radius =
  Node_map.fold
    (fun p d acc -> if d <= radius then Node_set.add p acc else acc)
    (bfs_distances t source)
    Node_set.empty

let memo_resident_words t =
  match t.caches with
  | None -> 0
  | Some c ->
      Set_cache.resident c.borders
      + Set_cache.resident c.components
      + Id_cache.resident c.neigh

let pp_stats ppf t =
  match t.repr with
  | Adjacency a ->
      let min_degree =
        Node_map.fold
          (fun _ neigh acc -> Int.min acc (Node_set.cardinal neigh))
          a max_int
      in
      let min_degree = if node_count t = 0 then 0 else min_degree in
      Format.fprintf ppf "graph: %d nodes, %d edges, degree %d..%d" (node_count t)
        (edge_count t) min_degree (max_degree t)
  | Implicit k ->
      Format.fprintf ppf "graph: %s (implicit), %d nodes, degree <= %d" k.k_label
        k.k_n k.k_max_degree

let pp ppf t =
  pp_stats ppf t;
  match t.repr with
  | Adjacency a ->
      Node_map.iter
        (fun p neigh ->
          Format.fprintf ppf "@.  %a: %a" Node_id.pp p Node_set.pp neigh)
        a
  | Implicit _ -> ()
