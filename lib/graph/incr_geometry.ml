(* Incremental fault geometry under single-crash deltas.

   [Fault_geometry.compute] re-runs connected-components over the whole
   faulty set on every query — fine at N = 10², hopeless during a crash
   cascade on a million-node implicit topology.  This tracker maintains
   the same geometry (domains = connected components of the faulty set,
   clusters = domains grouped by transitive border-sharing) under one
   crash at a time, in amortized near-constant time per crash, touching
   only the crashed node's neighbourhood.

   Live state is proportional to |faulty ∪ border(faulty)|, never to N:
   every table below is keyed by nodes that have crashed or sit on a
   domain border, which is exactly the footprint CD3 (confinement)
   allows the protocol itself.

   Domains: a union-find over the faulty nodes.  Crashing [p] makes a
   singleton region and unions it with each already-faulty neighbour;
   each root carries its member list and its border (correct neighbours
   of members) as a patchable hash-set — [p] is deleted from the merged
   border (it just crashed out of it) and [p]'s correct neighbours are
   inserted.

   Clusters: a second union-find whose elements are faulty nodes AND
   their correct border nodes; crashing [p] unions [p] with every
   neighbour.  The edges ever unioned are exactly the graph edges with
   at least one faulty endpoint, so two faulty nodes share a cluster
   component iff they are connected through faulty runs bridged by
   shared correct border nodes — precisely the transitive closure of
   [Fault_geometry.adjacent] (borders sharing a node).  Correct-correct
   edges are never unioned, so no shortcut through the healthy part of
   the graph exists. *)

type region = {
  mutable r_members : int list;
  mutable r_size : int;
  mutable r_border : (int, unit) Hashtbl.t;
}

type t = {
  graph : Graph.t;
  parent : (int, int) Hashtbl.t;  (* domain DSU; membership = crashed *)
  regions : (int, region) Hashtbl.t;  (* payload at domain roots only *)
  cl_parent : (int, int) Hashtbl.t;  (* cluster DSU: faulty ∪ border *)
  mutable count : int;  (* crashed nodes *)
}

let create graph =
  {
    graph;
    parent = Hashtbl.create 64;
    regions = Hashtbl.create 64;
    cl_parent = Hashtbl.create 64;
    count = 0;
  }

let graph t = t.graph

(* Path-halving find over a sparse parent table. *)
let rec find parent i =
  match Hashtbl.find_opt parent i with
  | None -> i
  | Some p when Int.equal p i -> i
  | Some p ->
      let gp = Option.value ~default:p (Hashtbl.find_opt parent p) in
      Hashtbl.replace parent i gp;
      find parent gp

let cl_add t i = if not (Hashtbl.mem t.cl_parent i) then Hashtbl.replace t.cl_parent i i

let cl_union t a b =
  let ra = find t.cl_parent a and rb = find t.cl_parent b in
  if not (Int.equal ra rb) then Hashtbl.replace t.cl_parent ra rb

(* Union by region size; the loser's member list and border set merge
   into the winner's (smaller border table is drained into the larger,
   whichever record survives), and the loser's payload is dropped. *)
let region_union t a b =
  let ra = find t.parent a and rb = find t.parent b in
  if not (Int.equal ra rb) then begin
    let reg_a = Hashtbl.find t.regions ra and reg_b = Hashtbl.find t.regions rb in
    let winner_root, winner, loser_root, loser =
      if reg_a.r_size >= reg_b.r_size then (ra, reg_a, rb, reg_b)
      else (rb, reg_b, ra, reg_a)
    in
    Hashtbl.replace t.parent loser_root winner_root;
    Hashtbl.remove t.regions loser_root;
    winner.r_members <- List.rev_append loser.r_members winner.r_members;
    winner.r_size <- winner.r_size + loser.r_size;
    let small, large =
      if Hashtbl.length winner.r_border >= Hashtbl.length loser.r_border then
        (loser.r_border, winner.r_border)
      else (winner.r_border, loser.r_border)
    in
    Hashtbl.iter (fun q () -> Hashtbl.replace large q ()) small;
    winner.r_border <- large
  end

let crash t p =
  let p = Node_id.to_int p in
  if not (Hashtbl.mem t.parent p) then begin
    Hashtbl.replace t.parent p p;
    Hashtbl.replace t.regions p
      { r_members = [ p ]; r_size = 1; r_border = Hashtbl.create 8 };
    t.count <- t.count + 1;
    cl_add t p;
    (* Classify the neighbourhood first: [region_union] may retire any
       region record — including [p]'s fresh one — so border patching
       must wait until the merges settle on a root. *)
    let faulty_ns = ref [] and correct_ns = ref [] in
    Graph.iter_neighbour_ids t.graph p (fun q ->
        cl_add t q;
        cl_union t p q;
        if Hashtbl.mem t.parent q then faulty_ns := q :: !faulty_ns
        else correct_ns := q :: !correct_ns);
    List.iter (fun q -> region_union t p q) !faulty_ns;
    let region = Hashtbl.find t.regions (find t.parent p) in
    List.iter (fun q -> Hashtbl.replace region.r_border q ()) !correct_ns;
    (* [p] was a correct border node of every region it just merged
       with; it crashed out of that border. *)
    Hashtbl.remove region.r_border p
  end

(* Region roots are visited in undefined hash order; every accessor
   sorts with [Node_set.compare], which on disjoint sets is exactly
   "increasing minimum element" — the order [Graph.connected_components]
   and [Fault_geometry.group_clusters] document. *)

let domain_sets t =
  Hashtbl.fold (fun _ region acc -> Node_set.of_ints region.r_members :: acc)
    t.regions []

let domains t = List.sort Node_set.compare (domain_sets t)

let domain_of t p =
  let i = Node_id.to_int p in
  if not (Hashtbl.mem t.parent i) then None
  else
    let root = find t.parent i in
    Option.map
      (fun region -> Node_set.of_ints region.r_members)
      (Hashtbl.find_opt t.regions root)

let border_of t p =
  let i = Node_id.to_int p in
  if not (Hashtbl.mem t.parent i) then None
  else
    let root = find t.parent i in
    Option.map
      (fun region ->
        Hashtbl.fold
          (fun q () acc -> Node_set.add (Node_id.of_int q) acc)
          region.r_border Node_set.empty)
      (Hashtbl.find_opt t.regions root)

let clusters t =
  let groups = Hashtbl.create 16 in
  Hashtbl.iter
    (fun root region ->
      let c = find t.cl_parent root in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups c) in
      Hashtbl.replace groups c (Node_set.of_ints region.r_members :: prev))
    t.regions;
  Hashtbl.fold (fun _ ds acc -> List.sort Node_set.compare ds :: acc) groups []
  |> List.sort (List.compare Node_set.compare)

let snapshot t =
  Fault_geometry.of_parts t.graph ~domains:(domains t) ~clusters:(clusters t)

(* Rough resident footprint in words: each hash binding costs a bucket
   cons (3 words) plus table slots; member lists cost a cons per node.
   The point is the scaling — O(|faulty ∪ border|), not O(N) — and the
   bench gate asserts a ceiling on this number during a large-N
   cascade. *)
let resident_words t =
  let table_words tbl = (3 * Hashtbl.length tbl) + 16 in
  let region_words =
    Hashtbl.fold
      (fun _ region acc -> acc + 8 + (3 * region.r_size) + table_words region.r_border)
      t.regions 0
  in
  table_words t.parent + table_words t.cl_parent + region_words

let pp ppf t =
  Format.fprintf ppf "incr-geometry: %d crashed in %d domain(s), %d cluster(s)"
    t.count
    (Hashtbl.length t.regions)
    (List.length (clusters t))
