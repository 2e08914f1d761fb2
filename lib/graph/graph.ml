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
(* One representation: a vertex count, a vertex test and a neighbour
   iterator over int ids.

   The paper's nodes "query G on demand ... using some underlying
   topology service", and that is all a graph is here: every query
   below goes through [mem] and [iter], so a topology generated on
   demand from a kernel over [0, n) ({!implicit}) and one stored as a
   persistent adjacency map keyed by id ({!add_edge}, {!of_edges},
   {!induced}) run the same code, and neither allocates by its largest
   id.  Extending a kernel graph builds its map from the kernel once.

   Clock-capped memos keyed by set fingerprint answer [border] and
   [connected_components] — the protocol recomputes [border cfg.graph
   view] on every message delivery and the checker on every
   decision/property pair, almost always on a handful of distinct views
   — and one keyed by id answers [neighbours]. *)
type caches = {
  borders : Node_set.t Set_cache.t;
  components : Node_set.t list Set_cache.t;
  neigh : Node_set.t Id_cache.t;
}

type t = {
  n : int;  (* vertex count *)
  last : int;  (* largest vertex id, -1 when empty *)
  mem : int -> bool;  (* vertex test *)
  iter : int -> (int -> unit) -> unit;  (* each neighbour id once; none for a non-vertex *)
  adjacency : Node_set.t Node_map.t Lazy.t;  (* what [add_node] and [add_edge] extend *)
  all : Node_set.t Lazy.t;  (* the vertex set, on demand *)
  mutable caches : caches option;
}

(* The vertex test reads the vertex set, a search over a few words,
   rather than descending the map through the functor's comparator:
   the checker asks it per node.  The set is built on first use, so
   the builders' chains of [add_edge] never pay for it. *)
let stored a ~n =
  let all = lazy (Node_map.keys a) in
  {
    n;
    last = (match Node_map.max_binding_opt a with Some (p, _) -> Node_id.to_int p | None -> -1);
    mem = (fun i -> Node_set.mem (Node_id.of_int i) (Lazy.force all));
    iter =
      (fun i f ->
        match Node_map.find (Node_id.of_int i) a with
        | s -> Node_set.iter (fun q -> f (Node_id.to_int q)) s
        | exception Not_found -> ());
    adjacency = Lazy.from_val a;
    all;
    caches = None;
  }

let empty = stored Node_map.empty ~n:0

let collect iter i =
  let acc = ref Node_set.empty in
  iter i (fun q -> acc := Node_set.add (Node_id.of_int q) !acc);
  !acc

let implicit ~n ~iter_neighbours =
  if n < 1 then invalid_arg "Graph.implicit: need n >= 1";
  let mem i = 0 <= i && i < n in
  let iter i f = if mem i then iter_neighbours i f in
  {
    n;
    last = n - 1;
    mem;
    iter;
    adjacency =
      lazy
        (let a = ref Node_map.empty in
         for i = 0 to n - 1 do
           a := Node_map.add (Node_id.of_int i) (collect iter i) !a
         done;
         !a);
    all = lazy (Node_set.full n);
    caches = None;
  }

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

let neighbours t p =
  let c = caches_of t in
  match Id_cache.find_exn c.neigh p with
  | s -> s
  | exception Not_found ->
      let s = collect t.iter (Node_id.to_int p) in
      Id_cache.add c.neigh p s ~weight:(Node_set.words s + 1);
      s

let iter_neighbour_ids t i f = t.iter i f

let mem_edge p q t =
  let j = Node_id.to_int q in
  let found = ref false in
  t.iter (Node_id.to_int p) (fun k -> if Int.equal k j then found := true);
  !found

let add_node p t =
  let a = Lazy.force t.adjacency in
  if Node_map.mem p a then t else stored (Node_map.add p Node_set.empty a) ~n:(t.n + 1)

let check_not_loop p q = if Node_id.equal p q then invalid_arg "Graph.add_edge: self-loop"

let add_edge p q t =
  check_not_loop p q;
  let t = add_node p (add_node q t) in
  let a = Lazy.force t.adjacency in
  let np = Node_map.find p a in
  if Node_set.mem q np then t
  else
    let a = Node_map.add q (Node_set.add p (Node_map.find q a)) a in
    stored (Node_map.add p (Node_set.add q np) a) ~n:t.n

(* One adjacency map folded over the edges and wrapped once, so no
   graph value is built per edge; a repeated edge adds a neighbour
   already there. *)
let of_edge_ids l =
  let link p q a =
    let np = match Node_map.find p a with s -> s | exception Not_found -> Node_set.empty in
    Node_map.add p (Node_set.add q np) a
  in
  let a =
    List.fold_left
      (fun a (p, q) ->
        check_not_loop p q;
        link p q (link q p a))
      Node_map.empty l
  in
  stored a ~n:(Node_map.cardinal a)

let of_edges l =
  of_edge_ids (List.map (fun (i, j) -> (Node_id.of_int i, Node_id.of_int j)) l)

let nodes t = Lazy.force t.all

let mem_node p t = t.mem (Node_id.to_int p)

let node_count t = t.n

(* Vertices whose largest id is n - 1 are exactly [0, n), and the k-th
   of them is k: found without building the vertex set, which on a
   kernel costs O(n / 63) words. *)
let nth_node t k =
  if k < 0 || k >= t.n then invalid_arg "Graph.nth_node: rank out of range";
  if Int.equal t.last (t.n - 1) then Node_id.of_int k
  else List.nth (Node_set.elements (nodes t)) k

let compare_edge (p1, q1) (p2, q2) =
  let c = Node_id.compare p1 p2 in
  if c <> 0 then c else Node_id.compare q1 q2

let edges t =
  let acc = ref [] in
  Node_set.iter
    (fun p ->
      let i = Node_id.to_int p in
      t.iter i (fun j -> if i < j then acc := (p, Node_id.of_int j) :: !acc))
    (nodes t);
  List.sort compare_edge !acc

let border_uncached t s =
  Node_set.diff
    (Node_set.fold (fun p acc -> Node_set.union acc (neighbours t p)) s
       Node_set.empty)
    s

let border t s =
  if Node_set.is_empty s then Node_set.empty
  else begin
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
  stored adjacency ~n:(Node_set.cardinal s)

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

(* Drop ids outside the graph by the vertex test, without building
   [nodes t] (O(N / 63) words on a kernel). *)
let clip t s = Node_set.filter (fun p -> t.mem (Node_id.to_int p)) s

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

let memo_resident_words t =
  match t.caches with
  | None -> 0
  | Some c ->
      Set_cache.resident c.borders
      + Set_cache.resident c.components
      + Id_cache.resident c.neigh
