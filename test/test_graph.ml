(* Unit and property tests for the knowledge-graph library. *)

open Cliffedge_graph

let node = Node_id.of_int

let set = Node_set.of_ints

(* The Fig. 1-style test fixture: a path 0-1-2-3-4 plus a triangle
   2-5, 3-5. *)
let fixture =
  Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (2, 5); (3, 5) ]

let test_empty () =
  Alcotest.(check int) "nodes" 0 (Graph.node_count Graph.empty);
  Alcotest.(check int) "edges" 0 (List.length (Graph.edges Graph.empty));
  Alcotest.(check bool) "not connected" false (Graph.is_connected Graph.empty)

let test_add_node_idempotent () =
  let g = Graph.add_node (node 3) (Graph.add_node (node 3) Graph.empty) in
  Alcotest.(check int) "one node" 1 (Graph.node_count g);
  Alcotest.(check bool) "no neighbours" true (Node_set.is_empty (Graph.neighbours g (node 3)))

let test_add_edge () =
  let g = Graph.of_edges [ (0, 1) ] in
  Alcotest.(check bool) "mem 0-1" true (Graph.mem_edge (node 0) (node 1) g);
  Alcotest.(check bool) "mem 1-0 (undirected)" true (Graph.mem_edge (node 1) (node 0) g);
  Alcotest.(check int) "edge count" 1 (List.length (Graph.edges g))

let test_add_edge_idempotent () =
  let g = Graph.of_edges [ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "one edge" 1 (List.length (Graph.edges g))

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (Graph.of_edges [ (2, 2) ]))

let test_neighbours () =
  Alcotest.(check bool) "n2 neighbours" true
    (Node_set.equal (set [ 1; 3; 5 ]) (Graph.neighbours fixture (node 2)));
  Alcotest.(check bool) "absent node" true
    (Node_set.is_empty (Graph.neighbours fixture (node 99)))

let test_edges_listing () =
  Alcotest.(check int) "six edges" 6 (List.length (Graph.edges fixture));
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "u < v" true (Node_id.compare u v < 0))
    (Graph.edges fixture)

let test_border () =
  (* border({2,3}) = {1, 4, 5} *)
  Alcotest.(check bool) "border of {2,3}" true
    (Node_set.equal (set [ 1; 4; 5 ]) (Graph.border fixture (set [ 2; 3 ])));
  (* border of a single node is its neighbourhood *)
  Alcotest.(check bool) "border of {0}" true
    (Node_set.equal (set [ 1 ]) (Graph.border fixture (set [ 0 ])));
  Alcotest.(check bool) "border of everything is empty" true
    (Node_set.is_empty (Graph.border fixture (Graph.nodes fixture)));
  Alcotest.(check bool) "border of empty is empty" true
    (Node_set.is_empty (Graph.border fixture Node_set.empty))

let test_closed_neighbourhood () =
  Alcotest.(check bool) "closed nbhd" true
    (Node_set.equal (set [ 1; 2; 3; 4; 5 ])
       (Graph.closed_neighbourhood fixture (set [ 2; 3 ])))

let test_induced () =
  let sub = Graph.induced fixture (set [ 2; 3; 5 ]) in
  Alcotest.(check int) "nodes" 3 (Graph.node_count sub);
  Alcotest.(check int) "edges" 3 (List.length (Graph.edges sub));
  Alcotest.(check bool) "no external node" false (Graph.mem_node (node 1) sub)

let test_connected_components () =
  (* {0,1} and {3,4,5} are two components of the induced subgraph. *)
  let comps = Graph.connected_components fixture (set [ 0; 1; 3; 4; 5 ]) in
  Alcotest.(check int) "two components" 2 (List.length comps);
  Alcotest.(check bool) "first" true (Node_set.equal (set [ 0; 1 ]) (List.nth comps 0));
  Alcotest.(check bool) "second" true
    (Node_set.equal (set [ 3; 4; 5 ]) (List.nth comps 1))

let test_connected_components_ignores_foreign () =
  let comps = Graph.connected_components fixture (set [ 0; 99 ]) in
  Alcotest.(check int) "foreign nodes dropped" 1 (List.length comps)

let test_is_connected_subset () =
  Alcotest.(check bool) "connected" true (Graph.is_connected_subset fixture (set [ 2; 3; 5 ]));
  Alcotest.(check bool) "disconnected" false
    (Graph.is_connected_subset fixture (set [ 0; 4 ]));
  Alcotest.(check bool) "empty not connected" false
    (Graph.is_connected_subset fixture Node_set.empty);
  Alcotest.(check bool) "singleton connected" true
    (Graph.is_connected_subset fixture (set [ 4 ]));
  Alcotest.(check bool) "foreign member" false
    (Graph.is_connected_subset fixture (set [ 2; 99 ]))

let test_is_connected_whole () =
  Alcotest.(check bool) "fixture connected" true (Graph.is_connected fixture);
  let two = Graph.of_edges [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "two islands" false (Graph.is_connected two)

(* Property tests over random graphs. *)

let gen_graph =
  QCheck2.Gen.(
    let* n = int_range 2 40 in
    let* seed = int_range 0 10_000 in
    let rng = Cliffedge_prng.Prng.create seed in
    return (Topology.erdos_renyi rng n ~p:0.15))

let prop_border_disjoint =
  QCheck2.Test.make ~name:"border(S) is disjoint from S" ~count:100
    QCheck2.Gen.(
      pair gen_graph (int_range 0 10_000))
    (fun (g, seed) ->
      let rng = Cliffedge_prng.Prng.create seed in
      let size = 1 + Cliffedge_prng.Prng.int rng (max 1 (Graph.node_count g - 1)) in
      let s = Cliffedge_workload.Fault_gen.connected_region rng g ~size in
      Node_set.is_empty (Node_set.inter s (Graph.border g s)))

let prop_components_partition =
  QCheck2.Test.make ~name:"components partition the subset" ~count:100
    QCheck2.Gen.(pair gen_graph (int_range 0 10_000))
    (fun (g, seed) ->
      let rng = Cliffedge_prng.Prng.create seed in
      let s =
        Node_set.random_subset rng (Graph.nodes g) ~keep_probability:0.4
      in
      let comps = Graph.connected_components g s in
      let union = List.fold_left Node_set.union Node_set.empty comps in
      let disjoint =
        List.for_all
          (fun c1 ->
            List.for_all
              (fun c2 ->
                Node_set.equal c1 c2 || Node_set.is_empty (Node_set.inter c1 c2))
              comps)
          comps
      in
      Node_set.equal union s && disjoint
      && List.for_all (Graph.is_connected_subset g) comps)

let prop_induced_edge_subset =
  QCheck2.Test.make ~name:"induced subgraph keeps only internal edges" ~count:100
    QCheck2.Gen.(pair gen_graph (int_range 0 10_000))
    (fun (g, seed) ->
      let rng = Cliffedge_prng.Prng.create seed in
      let s = Node_set.random_subset rng (Graph.nodes g) ~keep_probability:0.5 in
      let sub = Graph.induced g s in
      List.for_all
        (fun (u, v) ->
          Node_set.mem u s && Node_set.mem v s && Graph.mem_edge u v g)
        (Graph.edges sub))

let suite =
  ( "graph",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "add_node idempotent" `Quick test_add_node_idempotent;
      Alcotest.test_case "add_edge" `Quick test_add_edge;
      Alcotest.test_case "add_edge idempotent" `Quick test_add_edge_idempotent;
      Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
      Alcotest.test_case "neighbours" `Quick test_neighbours;
      Alcotest.test_case "edges listing" `Quick test_edges_listing;
      Alcotest.test_case "border" `Quick test_border;
      Alcotest.test_case "closed neighbourhood" `Quick test_closed_neighbourhood;
      Alcotest.test_case "induced" `Quick test_induced;
      Alcotest.test_case "connected components" `Quick test_connected_components;
      Alcotest.test_case "components ignore foreign" `Quick
        test_connected_components_ignores_foreign;
      Alcotest.test_case "is_connected_subset" `Quick test_is_connected_subset;
      Alcotest.test_case "is_connected" `Quick test_is_connected_whole;
      QCheck_alcotest.to_alcotest prop_border_disjoint;
      QCheck_alcotest.to_alcotest prop_components_partition;
      QCheck_alcotest.to_alcotest prop_induced_edge_subset;
    ] )
