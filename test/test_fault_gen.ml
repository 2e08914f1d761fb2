(* Tests for the fault-pattern generators. *)

open Cliffedge_graph
module Fault_gen = Cliffedge_workload.Fault_gen
module Prng = Cliffedge_prng.Prng

let rng () = Prng.create 4242

let torus = Topology.torus 8 8

let test_connected_region_properties () =
  for seed = 0 to 20 do
    let rng = Prng.create seed in
    let size = 1 + Prng.int rng 10 in
    let region = Fault_gen.connected_region rng torus ~size in
    Alcotest.(check int) "size" size (Node_set.cardinal region);
    Alcotest.(check bool) "connected" true (Graph.is_region torus region)
  done

let test_connected_region_from_seed_node () =
  let seed_node = Node_id.of_int 12 in
  let region = Fault_gen.connected_region_from (rng ()) torus ~seed_node ~size:5 in
  Alcotest.(check bool) "contains seed" true (Node_set.mem seed_node region);
  Alcotest.(check bool) "connected" true (Graph.is_region torus region)

(* Two components: the path 0-1-2 and the edge 3-4.  A region grown
   from node 3 can take only {3, 4}, whose border is empty. *)
let test_region_stops_at_component () =
  let g = Graph.of_edges [ (0, 1); (1, 2); (3, 4) ] in
  let region =
    Fault_gen.connected_region_from (rng ()) g ~seed_node:(Node_id.of_int 3)
      ~size:3
  in
  Alcotest.(check bool) "the whole component" true
    (Node_set.equal region (Node_set.of_ints [ 3; 4 ]));
  Alcotest.(check bool) "no border" true
    (Node_set.is_empty (Graph.border g region))

let test_size_validation () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero" true
    (raises (fun () -> Fault_gen.connected_region (rng ()) torus ~size:0));
  Alcotest.(check bool) "all nodes" true
    (raises (fun () -> Fault_gen.connected_region (rng ()) torus ~size:64))

let test_isolated_regions () =
  match Fault_gen.isolated_regions (rng ()) torus ~count:3 ~size:2 with
  | None -> Alcotest.fail "placement should succeed on an 8x8 torus"
  | Some regions ->
      Alcotest.(check int) "three regions" 3 (List.length regions);
      List.iter
        (fun r ->
          Alcotest.(check bool) "connected" true (Graph.is_region torus r);
          List.iter
            (fun r' ->
              if not (Node_set.equal r r') then
                Alcotest.(check bool) "envelopes disjoint" true
                  (Node_set.is_empty
                     (Node_set.inter
                        (Graph.closed_neighbourhood torus r)
                        r')))
            regions)
        regions

let test_isolated_regions_impossible () =
  (* Can't place 10 disjoint 3-node envelopes in a 9-node ring. *)
  let small = Topology.ring 9 in
  Alcotest.(check bool) "refuses" true
    (Fault_gen.isolated_regions (rng ()) small ~count:10 ~size:3 = None)

let test_adjacent_chain () =
  match Fault_gen.adjacent_chain (rng ()) torus ~domains:3 ~size:2 with
  | None -> Alcotest.fail "chain placement should succeed"
  | Some domains ->
      Alcotest.(check int) "three domains" 3 (List.length domains);
      (* Consecutive domains adjacent, all disconnected from each other. *)
      let rec check = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "adjacent" true
              (not
                 (Node_set.is_empty
                    (Node_set.inter (Graph.border torus a) (Graph.border torus b))));
            Alcotest.(check bool) "not merged" true
              (Node_set.is_empty (Node_set.inter (Graph.border torus a) b));
            check rest
        | _ -> ()
      in
      check domains;
      (* They form ONE faulty cluster. *)
      let faulty = List.fold_left Node_set.union Node_set.empty domains in
      let geom = Fault_geometry.compute torus ~faulty in
      Alcotest.(check int) "domains preserved" 3
        (List.length (Fault_geometry.domains geom));
      Alcotest.(check int) "single cluster" 1 (List.length (Fault_geometry.clusters geom))

let test_crash_at () =
  let region = Node_set.of_ints [ 1; 2 ] in
  Alcotest.(check int) "schedule size" 2 (List.length (Fault_gen.crash_at 3.0 region));
  List.iter
    (fun (t, _) -> Alcotest.(check (float 0.0)) "time" 3.0 t)
    (Fault_gen.crash_at 3.0 region)

let test_staggered_window () =
  let region = Node_set.of_ints [ 1; 2; 3; 4 ] in
  let schedule = Fault_gen.staggered (rng ()) ~start:10.0 ~spread:5.0 region in
  Alcotest.(check int) "all nodes" 4 (List.length schedule);
  List.iter
    (fun (t, _) ->
      Alcotest.(check bool) "within window" true (t >= 10.0 && t <= 15.0))
    schedule;
  (* Sorted by time. *)
  let times = List.map fst schedule in
  Alcotest.(check bool) "sorted" true (times = List.sort Float.compare times)

let test_cascade () =
  let seed_region = Node_set.of_ints [ 0 ] in
  let schedule, final =
    Fault_gen.cascade (rng ()) torus ~seed_region ~depth:5 ~start:10.0 ~interval:20.0
  in
  Alcotest.(check int) "six crashes" 6 (List.length schedule);
  Alcotest.(check int) "final region size" 6 (Node_set.cardinal final);
  Alcotest.(check bool) "final region connected" true (Graph.is_region torus final);
  (* Times strictly increase past the seed. *)
  let times = List.map fst schedule in
  Alcotest.(check bool) "ordered" true (times = List.sort Float.compare times);
  (* The schedule covers exactly the final region. *)
  let covered =
    List.fold_left (fun acc (_, p) -> Node_set.add p acc) Node_set.empty schedule
  in
  Alcotest.(check bool) "coverage" true (Node_set.equal covered final)

let test_cascade_stops_at_graph_edge () =
  let small = Topology.ring 5 in
  let schedule, final =
    Fault_gen.cascade (rng ()) small
      ~seed_region:(Node_set.of_ints [ 0 ])
      ~depth:50 ~start:0.0 ~interval:1.0
  in
  (* Keeps at least two correct nodes. *)
  Alcotest.(check bool) "bounded" true (Node_set.cardinal final <= 3);
  Alcotest.(check bool) "schedule matches" true
    (List.length schedule = Node_set.cardinal final)

let suite =
  ( "fault gen",
    [
      Alcotest.test_case "connected region" `Quick test_connected_region_properties;
      Alcotest.test_case "region from seed" `Quick test_connected_region_from_seed_node;
      Alcotest.test_case "region stops at its component" `Quick
        test_region_stops_at_component;
      Alcotest.test_case "size validation" `Quick test_size_validation;
      Alcotest.test_case "isolated regions" `Quick test_isolated_regions;
      Alcotest.test_case "isolated impossible" `Quick test_isolated_regions_impossible;
      Alcotest.test_case "adjacent chain" `Quick test_adjacent_chain;
      Alcotest.test_case "crash_at" `Quick test_crash_at;
      Alcotest.test_case "staggered" `Quick test_staggered_window;
      Alcotest.test_case "cascade" `Quick test_cascade;
      Alcotest.test_case "cascade bounded" `Quick test_cascade_stops_at_graph_edge;
    ] )
