open Cliffedge_graph
module Prng = Cliffedge_prng.Prng

let grow rng graph ~seed_node ~size =
  let rec loop region =
    if Node_set.cardinal region >= size then region
    else
      let border = Graph.border graph region in
      if Node_set.is_empty border then region
      else loop (Node_set.add (Node_set.random_element rng border) region)
  in
  loop (Node_set.singleton seed_node)

let check_size graph ~size =
  let n = Graph.node_count graph in
  if size >= 1 && size <= n - 1 then Ok ()
  else
    Error
      (Printf.sprintf "region size %d is not within [1, %d] (the topology has %d nodes)"
         size (n - 1) n)

let validate graph size =
  Result.iter_error (fun m -> invalid_arg ("Fault_gen: " ^ m)) (check_size graph ~size)

let connected_region_from rng graph ~seed_node ~size =
  validate graph size;
  grow rng graph ~seed_node ~size

(* The same draw as [random_element] over [Graph.nodes], without
   building them. *)
let random_node rng graph = Graph.nth_node graph (Prng.int rng (Graph.node_count graph))

let connected_region rng graph ~size =
  validate graph size;
  grow rng graph ~seed_node:(random_node rng graph) ~size

(* Deterministic sibling of [grow]: always absorbs the minimum-id border
   node.  No PRNG, no [Graph.node_count] (which an implicit graph can
   answer, but [validate]'s bound is pointless at N = 10⁶), so large-N
   experiments get a reproducible region without touching state
   proportional to the graph. *)
let compact_region graph ~seed_node ~size =
  if size < 1 then invalid_arg "Fault_gen.compact_region: size must be >= 1";
  let rec loop region =
    if Node_set.cardinal region >= size then region
    else
      let border = Graph.border graph region in
      match Node_set.min_elt_opt border with
      | None -> region
      | Some p -> loop (Node_set.add p region)
  in
  loop (Node_set.singleton seed_node)

let attempts = 64

(* Generic rejection sampler: draws regions from allowed seeds until the
   predicate admits one. *)
let sample_region rng graph ~size ~allowed ~admissible =
  let rec loop k =
    if k = 0 || Node_set.is_empty allowed then None
    else
      let seed_node = Node_set.random_element rng allowed in
      let region = grow rng graph ~seed_node ~size in
      if Int.equal (Node_set.cardinal region) size && admissible region then Some region
      else loop (k - 1)
  in
  loop attempts

let isolated_regions rng graph ~count ~size =
  validate graph size;
  let rec place placed forbidden k =
    if k = 0 then Some (List.rev placed)
    else
      let allowed = Node_set.diff (Graph.nodes graph) forbidden in
      let admissible region =
        (* The region's closed neighbourhood must avoid every previous
           closed neighbourhood: distinct clusters, disjoint borders. *)
        Node_set.is_empty
          (Node_set.inter (Graph.closed_neighbourhood graph region) forbidden)
        && Node_set.cardinal (Node_set.diff (Graph.nodes graph) region) > 0
      in
      match sample_region rng graph ~size ~allowed ~admissible with
      | None -> None
      | Some region ->
          let forbidden =
            Node_set.union forbidden (Graph.closed_neighbourhood graph region)
          in
          place (region :: placed) forbidden (k - 1)
  in
  if count * size >= Graph.node_count graph then None
  else place [] Node_set.empty count

let adjacent_chain rng graph ~domains ~size =
  validate graph size;
  let nodes = Graph.nodes graph in
  (* Each next domain must: share a border node with the previous one
     (adjacency), and not be adjacent to ANY domain's members (so the
     domains stay maximal and disjoint). *)
  let rec extend placed all_members k =
    if k = 0 then Some (List.rev placed)
    else
      match placed with
      | [] ->
          let allowed = nodes in
          let admissible _ = true in
          (match sample_region rng graph ~size ~allowed ~admissible with
          | None -> None
          | Some region -> extend [ region ] region (k - 1))
      | previous :: _ ->
          let shared_border = Graph.border graph previous in
          (* Seeds: neighbours of the previous border, outside every
             placed domain and outside their neighbourhoods. *)
          let blocked = Graph.closed_neighbourhood graph all_members in
          let allowed =
            Node_set.diff
              (Node_set.fold
                 (fun b acc -> Node_set.union acc (Graph.neighbours graph b))
                 shared_border Node_set.empty)
              blocked
          in
          let admissible region =
            (* Disconnected from earlier domains... *)
            Node_set.is_empty (Node_set.inter (Graph.border graph region) all_members)
            && Node_set.is_empty (Node_set.inter region blocked)
            (* ...but adjacent to the previous one: borders intersect. *)
            && (not
                  (Node_set.is_empty
                     (Node_set.inter (Graph.border graph region) shared_border)))
            (* and somebody stays alive. *)
            && Node_set.cardinal region < Node_set.cardinal nodes
          in
          (match sample_region rng graph ~size ~allowed ~admissible with
          | None -> None
          | Some region ->
              extend (region :: placed) (Node_set.union all_members region) (k - 1))
  in
  if domains * size >= Graph.node_count graph then None else extend [] Node_set.empty domains

type schedule = (float * Node_id.t) list

let crash_at time region = List.map (fun p -> (time, p)) (Node_set.elements region)

let staggered rng ~start ~spread region =
  List.map
    (fun p -> (start +. Prng.float rng spread, p))
    (Node_set.elements region)
  |> List.sort (fun (t1, p1) (t2, p2) ->
         let c = Float.compare t1 t2 in
         if c <> 0 then c else Node_id.compare p1 p2)

let cascade rng graph ~seed_region ~depth ~start ~interval =
  let nodes = Graph.node_count graph in
  let rec extend region schedule time k =
    if k = 0 then (List.rev schedule, region)
    else
      let border = Graph.border graph region in
      if Node_set.is_empty border || Node_set.cardinal region >= nodes - 2 then
        (List.rev schedule, region)
      else
        let victim = Node_set.random_element rng border in
        let time = time +. interval in
        extend (Node_set.add victim region) ((time, victim) :: schedule) time (k - 1)
  in
  let initial = crash_at start seed_region in
  let schedule, region = extend seed_region [] start depth in
  (initial @ schedule, region)
