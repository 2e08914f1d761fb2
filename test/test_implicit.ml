(* Differential validation of the implicit-topology kernels and the
   incremental fault-geometry tracker, plus runs at large node ids:
   every generator-backed graph must agree query-for-query with the
   graph stored from its own vertex and edge lists, [Incr_geometry]
   must agree with [Fault_geometry.compute] after every crash of a
   random sequence, and neither a run nor its accounting may depend on
   how large the ids are. *)

open Cliffedge_graph
module Prng = Cliffedge_prng.Prng
module Stats = Cliffedge_net.Stats
module Faults = Cliffedge_net.Faults
module Transport = Cliffedge_net.Transport
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module Fault_gen = Cliffedge_workload.Fault_gen

let set = Node_set.of_ints

let edge_list g =
  List.map
    (fun (p, q) -> (Node_id.to_int p, Node_id.to_int q))
    (Graph.edges g)

(* The graph stored from a kernel's own vertex and edge lists. *)
let stored_copy g =
  Node_set.fold Graph.add_node (Graph.nodes g) (Graph.of_edge_ids (Graph.edges g))

(* --- exact kernels: ring and torus match the stored builders -------- *)

let test_ring_kernel () =
  List.iter
    (fun n ->
      let stored = Topology.ring n and impl = Topology.implicit_ring n in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "ring %d edges" n)
        (edge_list stored) (edge_list impl);
      Alcotest.(check int) "node count" n (Graph.node_count impl);
      Alcotest.(check int) "edge count" n (List.length (Graph.edges impl));
      (* Extending a kernel graph extends the map built from it. *)
      let chord = (0, n / 2) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "ring %d plus a chord" n)
        (List.sort_uniq compare (chord :: edge_list stored))
        (edge_list (Graph.add_edge (Node_id.of_int 0) (Node_id.of_int (n / 2)) impl)))
    [ 3; 4; 10; 64; 257 ]

let test_torus_kernel () =
  List.iter
    (fun (w, h) ->
      let stored = Topology.torus w h and impl = Topology.implicit_torus w h in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "torus %dx%d edges" w h)
        (edge_list stored) (edge_list impl))
    [ (3, 3); (4, 5); (8, 8) ]

(* --- kernel well-formedness: symmetry, each neighbour once ---------- *)

let implicit_pool seed =
  [
    Topology.implicit_ring 37;
    Topology.implicit_torus 5 7;
    Topology.implicit_geometric ~seed 80 ~radius:0.2;
    Topology.implicit_power_law ~seed 96;
  ]

let prop_kernel_consistent =
  QCheck2.Test.make ~name:"implicit kernels: symmetric, each neighbour once, = own edge list"
    ~count:40
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      List.for_all
        (fun impl ->
          let stored = stored_copy impl in
          let n = Graph.node_count impl in
          Int.equal (Graph.node_count stored) n
          && List.for_all
               (fun i ->
                 let p = Node_id.of_int i in
                 let ni = Graph.neighbours impl p in
                 let listed = ref 0 in
                 Graph.iter_neighbour_ids impl i (fun _ -> incr listed);
                 Node_set.equal ni (Graph.neighbours stored p)
                 && Int.equal !listed (Node_set.cardinal ni)
                 && Node_set.for_all
                      (fun q -> Node_set.mem p (Graph.neighbours impl q))
                      ni)
               (List.init n (fun i -> i)))
        (implicit_pool seed))

let prop_geometry_queries_agree =
  QCheck2.Test.make ~name:"implicit border/components = stored copy" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let impl = Prng.choose rng (implicit_pool (Prng.int rng 0x3fffffff)) in
      let stored = stored_copy impl in
      let s =
        Node_set.random_subset rng (Graph.nodes impl) ~keep_probability:0.3
      in
      Node_set.equal (Graph.border impl s) (Graph.border stored s)
      && Node_set.equal
           (Graph.closed_neighbourhood impl s)
           (Graph.closed_neighbourhood stored s)
      && List.equal Node_set.equal
           (Graph.connected_components impl s)
           (Graph.connected_components stored s))

(* --- Graph.is_region = the BFS definition ---------------------------- *)

(* [is_region] answers from the components memo, [is_connected_subset]
   by a breadth-first walk of the set.  Subsets: empty, sparse random,
   a connected region, or a region with one more random node; a quarter
   of them also hold an id outside the graph.  Each is asked twice, so
   the second answer comes from the memo. *)
let prop_is_region_is_bfs =
  QCheck2.Test.make ~name:"is_region = BFS connectivity, stored and implicit" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let impl = Prng.choose rng (implicit_pool (Prng.int rng 0x3fffffff)) in
      let g = if Prng.bool rng then impl else stored_copy impl in
      let n = Graph.node_count g in
      let region () = Fault_gen.connected_region rng g ~size:(1 + Prng.int rng 6) in
      let s =
        match Prng.int rng 4 with
        | 0 -> Node_set.empty
        | 1 -> Node_set.random_subset rng (Graph.nodes g) ~keep_probability:0.05
        | 2 -> region ()
        | _ -> Node_set.add (Node_id.of_int (Prng.int rng n)) (region ())
      in
      let s =
        if Int.equal (Prng.int rng 4) 0 then Node_set.add (Node_id.of_int (n + Prng.int rng 3)) s
        else s
      in
      let bfs = Graph.is_connected_subset g s in
      Bool.equal (Graph.is_region g s) bfs && Bool.equal (Graph.is_region g s) bfs)

(* --- incremental geometry = batch recompute ------------------------- *)

let geometry_pool rng =
  [
    Topology.ring 24;
    Topology.path 17;
    Topology.torus 5 5;
    Topology.implicit_ring 30;
    Topology.implicit_torus 4 6;
    Topology.implicit_geometric ~seed:(Prng.int rng 0x3fffffff) 48 ~radius:0.25;
    Topology.implicit_power_law ~seed:(Prng.int rng 0x3fffffff) 40;
  ]

let same_geometry incr batch =
  List.equal Node_set.equal (Incr_geometry.domains incr)
    (Fault_geometry.domains batch)
  && List.equal (List.equal Node_set.equal) (Incr_geometry.clusters incr)
       (Fault_geometry.clusters batch)

let prop_incremental_matches_recompute =
  QCheck2.Test.make ~name:"incremental geometry = recompute after every crash"
    ~count:80
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let graph = Prng.choose rng (geometry_pool rng) in
      let n = Graph.node_count graph in
      let incr = Incr_geometry.create graph in
      let crashes = 1 + Prng.int rng (n / 2) in
      let faulty = ref Node_set.empty in
      let ok = ref true in
      for _ = 1 to crashes do
        let p = Node_id.of_int (Prng.int rng n) in
        Incr_geometry.crash incr p;
        faulty := Node_set.add p !faulty;
        let batch = Fault_geometry.compute graph ~faulty:!faulty in
        if not (same_geometry incr batch) then ok := false;
        (* The frozen snapshot must be indistinguishable from compute. *)
        let snap = Incr_geometry.snapshot incr in
        if
          not
            (List.equal Node_set.equal
               (Fault_geometry.domains snap)
               (Fault_geometry.domains batch))
        then ok := false;
        (* Borders read from the tracker = borders derived from the graph. *)
        match Incr_geometry.domain_of incr p with
        | None -> ok := false
        | Some d -> (
            match Incr_geometry.border_of incr p with
            | None -> ok := false
            | Some b -> if not (Node_set.equal b (Graph.border graph d)) then ok := false)
      done;
      (* Re-crashing an already-faulty node must change nothing. *)
      (match Node_set.min_elt_opt !faulty with
      | Some p ->
          let before = Incr_geometry.domains incr in
          Incr_geometry.crash incr p;
          if not (List.equal Node_set.equal before (Incr_geometry.domains incr)) then
            ok := false
      | None -> ());
      !ok)

(* --- memo caches: bounded residency, single-entry eviction ---------- *)

let test_memo_cap () =
  (* Border queries weigh their key and value sets' words, two per
     non-zero 63-bit word of members.  Each query below names 600 ids
     spread one per word, so it weighs about 3 600 words, and fifty
     distinct queries insert more than the residency bound below — the
     clock must evict entry by entry and keep residency near the cap
     instead of resetting to zero. *)
  let g = Topology.implicit_ring 100_000 in
  let cap = 1 lsl 15 in
  let max_seen = ref 0 and inserted = ref 0 in
  for i = 0 to 49 do
    let s = set (List.init 600 (fun k -> 10 + (k * 150) + (i * 2))) in
    let b = Graph.border g s in
    Alcotest.(check int) "two ring neighbours per member" 1200 (Node_set.cardinal b);
    inserted := !inserted + Node_set.words s + Node_set.words b;
    max_seen := Int.max !max_seen (Graph.memo_resident_words g)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "queries weigh %d words, over the residency bound" !inserted)
    true
    (!inserted > (3 * cap) + 8192);
  Alcotest.(check bool)
    (Printf.sprintf "residency %d stays under cap + one entry" !max_seen)
    true
    (!max_seen > 0 && !max_seen <= (3 * cap) + 8192);
  (* A repeated query after heavy eviction still answers correctly. *)
  let s = set [ 90_000 ] in
  Alcotest.(check bool) "repeat query correct" true
    (Node_set.equal (set [ 89_999; 90_001 ]) (Graph.border g s))

(* --- large node ids ---------------------------------------------------- *)

(* Per-pair counts are kept per source row, with no packing of the two
   ids.  The old 20-bit packing [(src lsl 20) lor dst] merged (1, 1)
   with (0, 2^20 + 1); the 31-bit one that followed raised from id 2^31
   on.  Pairs at 2^31, 2^40 and [max_int - 1] stay distinct, each
   counted once. *)
let test_stats_pairs_any_id () =
  let id = Node_id.of_int in
  let pairs =
    [
      (1, 1); (0, (1 lsl 20) + 1); (1 lsl 31, 0); (0, 1 lsl 31); (1 lsl 40, 1 lsl 31);
      (max_int - 1, 1 lsl 40); (1 lsl 40, max_int - 1);
    ]
  in
  let s = Stats.create () in
  List.iter (fun (a, b) -> Stats.record_send s ~src:(id a) ~dst:(id b) ~units:1) pairs;
  Alcotest.(check (list (pair int int)))
    "distinct pairs, in (src, dst) order" (List.sort compare pairs)
    (List.map (fun (a, b) -> (Node_id.to_int a, Node_id.to_int b)) (Stats.pairs s));
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "count of (%d, %d)" a b)
        1
        (Stats.pair_count s ~src:(id a) ~dst:(id b)))
    pairs;
  Alcotest.(check int) "reverse pair never sent" 0
    (Stats.pair_count s ~src:(id 1) ~dst:(id (max_int - 1)));
  Alcotest.(check int) "nodes involved" 6
    (Node_set.cardinal (Stats.communicating_nodes s))

(* An agreement runs the same at any id, on a kernel graph and on a
   stored one: an 8-node region just past 2^31 and one just below 2^40
   on implicit rings, and one on a stored 64-ring whose ids lie just
   below 2^40, decide twice and check clean, over reliable channels and
   over the ARQ on a lossy wire. *)
let test_run_at_large_ids () =
  let lossy =
    Transport.Arq_over_faulty ({ Faults.none with drop = 0.2 }, Transport.default_policy)
  in
  let top = 1 lsl 40 in
  let stored_ring base =
    Graph.of_edges (List.init 64 (fun i -> (base + i, base + ((i + 1) mod 64))))
  in
  List.iter
    (fun (ring, graph, seed_node) ->
      List.iter
        (fun (label, channel) ->
          let graph = graph () in
          let region =
            Fault_gen.compact_region graph ~seed_node:(Node_id.of_int seed_node) ~size:8
          in
          let outcome =
            Runner.run
              ~options:{ Runner.default_options with channel }
              ~graph ~crashes:(Fault_gen.crash_at 10.0 region)
              ~propose_value:Scenario.default_propose ()
          in
          let what = Printf.sprintf "region at %d of %s, %s" seed_node ring label in
          Alcotest.(check int) (what ^ ": decisions") 2 (List.length outcome.decisions);
          Alcotest.(check bool) (what ^ ": checks clean") true
            (Checker.ok (Checker.check ~value_equal:String.equal outcome)))
        [ ("reliable", Transport.Reliable); ("lossy ARQ", lossy) ])
    [
      ("implicit ring 2^32", (fun () -> Topology.implicit_ring (1 lsl 32)), (1 lsl 31) + 100);
      ("implicit ring 2^40", (fun () -> Topology.implicit_ring top), top - 100);
      ("stored 64-ring", (fun () -> stored_ring (top - 100)), top - 100);
    ]

let test_node_set_full () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "full %d" n)
        true
        (Node_set.equal (set (List.init n (fun i -> i))) (Node_set.full n)))
    [ 0; 1; 62; 63; 64; 100; 200 ];
  (* Ten all-ones words, each stored beside its index. *)
  Alcotest.(check int) "words of full 630" 20 (Node_set.words (Node_set.full 630));
  (* The ring's wrap-around pair costs its two words, not the ~16k words
     between them. *)
  Alcotest.(check int) "words of {0, 999 999}" 4
    (Node_set.words (set [ 0; 999_999 ]))

let suite =
  ( "implicit topologies",
    [
      Alcotest.test_case "ring kernel = stored ring" `Quick test_ring_kernel;
      Alcotest.test_case "torus kernel = stored torus" `Quick test_torus_kernel;
      Alcotest.test_case "memo residency capped" `Quick test_memo_cap;
      Alcotest.test_case "stats: distinct pairs at any id" `Quick test_stats_pairs_any_id;
      Alcotest.test_case "runs at any node id" `Quick test_run_at_large_ids;
      Alcotest.test_case "Node_set.full" `Quick test_node_set_full;
      QCheck_alcotest.to_alcotest prop_kernel_consistent;
      QCheck_alcotest.to_alcotest prop_geometry_queries_agree;
      QCheck_alcotest.to_alcotest prop_is_region_is_bfs;
      QCheck_alcotest.to_alcotest prop_incremental_matches_recompute;
    ] )
