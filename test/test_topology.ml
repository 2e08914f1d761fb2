(* Tests for the topology generators. *)

open Cliffedge_graph
module Prng = Cliffedge_prng.Prng

let rng () = Prng.create 12345

let check_shape name g ~nodes ~edges =
  Alcotest.(check int) (name ^ " nodes") nodes (Graph.node_count g);
  Alcotest.(check int) (name ^ " edges") edges (List.length (Graph.edges g));
  Alcotest.(check bool) (name ^ " connected") true (Graph.is_connected g)

let test_ring () =
  let g = Topology.ring 10 in
  check_shape "ring" g ~nodes:10 ~edges:10;
  Node_set.iter
    (fun p -> Alcotest.(check int) "degree 2" 2 (Node_set.cardinal (Graph.neighbours g p)))
    (Graph.nodes g)

let test_path () =
  let g = Topology.path 10 in
  check_shape "path" g ~nodes:10 ~edges:9

let test_grid () =
  let g = Topology.grid 4 5 in
  check_shape "grid" g ~nodes:20 ~edges:(3 * 5 + 4 * 4)

let test_torus () =
  let g = Topology.torus 4 5 in
  check_shape "torus" g ~nodes:20 ~edges:40;
  Node_set.iter
    (fun p -> Alcotest.(check int) "degree 4" 4 (Node_set.cardinal (Graph.neighbours g p)))
    (Graph.nodes g)

let test_complete () =
  let g = Topology.complete 8 in
  check_shape "complete" g ~nodes:8 ~edges:28

let test_star () =
  let g = Topology.star 9 in
  check_shape "star" g ~nodes:9 ~edges:8;
  Alcotest.(check int) "hub degree" 8
    (Node_set.cardinal (Graph.neighbours g (Node_id.of_int 0)))

let test_binary_tree () =
  let g = Topology.binary_tree 15 in
  check_shape "tree" g ~nodes:15 ~edges:14

let test_erdos_renyi () =
  let g = Topology.erdos_renyi (rng ()) 50 ~p:0.05 in
  Alcotest.(check int) "nodes" 50 (Graph.node_count g);
  Alcotest.(check bool) "connected (backbone)" true (Graph.is_connected g);
  Alcotest.(check bool) "has extra edges beyond backbone" true
    (List.length (Graph.edges g) >= 49)

let test_erdos_renyi_deterministic () =
  let a = Topology.erdos_renyi (Prng.create 7) 30 ~p:0.1 in
  let b = Topology.erdos_renyi (Prng.create 7) 30 ~p:0.1 in
  Alcotest.(check bool) "same seed, same graph" true (Graph.edges a = Graph.edges b)

let test_watts_strogatz () =
  let g = Topology.watts_strogatz (rng ()) 40 ~k:4 ~beta:0.2 in
  Alcotest.(check int) "nodes" 40 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_watts_strogatz_zero_beta () =
  let g = Topology.watts_strogatz (rng ()) 20 ~k:4 ~beta:0.0 in
  (* No rewiring: the pristine ring lattice, degree k everywhere. *)
  Node_set.iter
    (fun p ->
      Alcotest.(check int) "lattice degree" 4 (Node_set.cardinal (Graph.neighbours g p)))
    (Graph.nodes g)

let test_barabasi_albert () =
  let g = Topology.barabasi_albert (rng ()) 60 ~m:2 in
  Alcotest.(check int) "nodes" 60 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Initial clique of 3 plus 57 nodes contributing 2 edges each. *)
  Alcotest.(check int) "edges" (3 + (57 * 2)) (List.length (Graph.edges g))

let test_random_geometric () =
  let g = Topology.random_geometric (rng ()) 40 ~radius:0.2 in
  Alcotest.(check int) "nodes" 40 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_bad_arguments () =
  let invalid name f = Alcotest.check_raises name (Invalid_argument (Printf.sprintf "Topology.%s" name)) f in
  ignore invalid;
  (* Just assert they raise Invalid_argument, without matching messages. *)
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "ring 2" true (raises (fun () -> Topology.ring 2));
  Alcotest.(check bool) "path 1" true (raises (fun () -> Topology.path 1));
  Alcotest.(check bool) "torus 2x3" true (raises (fun () -> Topology.torus 2 3));
  Alcotest.(check bool) "ws odd k" true
    (raises (fun () -> Topology.watts_strogatz (rng ()) 10 ~k:3 ~beta:0.1));
  Alcotest.(check bool) "ba m too big" true
    (raises (fun () -> Topology.barabasi_albert (rng ()) 3 ~m:3));
  Alcotest.(check bool) "er bad p" true
    (raises (fun () -> Topology.erdos_renyi (rng ()) 10 ~p:1.5))

let test_spec_roundtrip () =
  let cases =
    [
      "ring:10";
      "path:5";
      "grid:3x4";
      "torus:5x5";
      "complete:6";
      "star:7";
      "tree:15";
      "er:20:0.1";
      "ws:20:4:0.1";
      "ba:20:2";
      "geo:20:0.3";
    ]
  in
  List.iter
    (fun s ->
      match Topology.spec_of_string s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok spec ->
          let printed = Format.asprintf "%a" Topology.pp_spec spec in
          Alcotest.(check string) "roundtrip" s printed;
          let g = Topology.build (rng ()) spec in
          Alcotest.(check bool) (s ^ " connected") true (Graph.is_connected g))
    cases

let test_spec_rejects_garbage () =
  List.iter
    (fun s ->
      match Topology.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" s)
    [ ""; "ring"; "ring:x"; "grid:3"; "unknown:3"; "er:10"; "torus:3x" ]

(* Every spec the parser accepts must build: the parser and the
   constructors share one bounds check.  The table walks each family
   across its bounds; [true] marks the specs that must parse. *)
let test_spec_accepted_builds () =
  List.iter
    (fun (s, valid) ->
      match Topology.spec_of_string s with
      | Error e ->
          if valid then Alcotest.failf "%s rejected: %s" s e
      | Ok spec -> (
          if not valid then Alcotest.failf "%s should be rejected" s;
          match Topology.build (rng ()) spec with
          | _ -> ()
          | exception Invalid_argument m ->
              Alcotest.failf "%s parsed but does not build: %s" s m))
    [
      ("ring:0", false); ("ring:2", false); ("ring:3", true); ("ring:-4", false);
      ("path:1", false); ("path:2", true);
      ("grid:1x1", false); ("grid:1x2", true); ("grid:0x5", false);
      ("grid:-1x-2", false);
      ("torus:0x5", false); ("torus:2x3", false); ("torus:3x3", true);
      ("complete:1", false); ("complete:2", true);
      ("star:1", false); ("star:2", true);
      ("tree:1", false); ("tree:2", true);
      ("er:1:0.5", false); ("er:2:0.5", true); ("er:40:1.5", false);
      ("er:10:-0.1", false); ("er:10:nan", false);
      ("ws:3:2:0.5", false); ("ws:4:2:0.5", true); ("ws:40:41:0.2", false);
      ("ws:10:3:0.1", false); ("ws:10:10:0.1", false); ("ws:10:2:1.5", false);
      ("ba:3:5", false); ("ba:2:1", false); ("ba:3:1", true); ("ba:5:0", false);
      ("geo:1:0.3", false); ("geo:2:0", false); ("geo:2:nan", false);
      ("geo:2:0.5", true);
      ("iring:2", false); ("iring:3", true);
      ("itorus:3x2", false); ("itorus:3x3", true);
      ("igeo:1:0.5", false); ("igeo:2:1.5", false); ("igeo:2:1", true);
      ("iplaw:7", false); ("iplaw:8", true);
    ]

(* Parameters are either short decimals, which [%g] prints exactly, or
   full-precision draws, which need up to 17 digits. *)
let gen_spec =
  QCheck2.Gen.(
    let size lo = int_range lo 5000 in
    let side lo = int_range lo 100 in
    let param hi =
      oneof
        [ map (fun k -> float_of_int k /. 1000.) (int_range 1 (int_of_float (hi *. 1000.)));
          float_range 1e-9 hi ]
    in
    oneof
      [
        map (fun n -> Topology.Ring n) (size 3);
        map (fun n -> Topology.Path n) (size 2);
        map2 (fun w h -> Topology.Grid (w, h)) (side 2) (side 1);
        map2 (fun w h -> Topology.Torus (w, h)) (side 3) (side 3);
        map (fun n -> Topology.Complete n) (size 2);
        map (fun n -> Topology.Star n) (size 2);
        map (fun n -> Topology.Binary_tree n) (size 2);
        map2 (fun n p -> Topology.Erdos_renyi (n, p)) (size 2) (param 1.0);
        (let* n = size 4 in
         let* half = int_range 1 ((n - 1) / 2) in
         map (fun beta -> Topology.Watts_strogatz (n, 2 * half, beta)) (param 1.0));
        (let* m = int_range 1 10 in
         map (fun n -> Topology.Barabasi_albert (n, m)) (size (m + 2)));
        map2 (fun n r -> Topology.Random_geometric (n, r)) (size 2) (param 10.0);
        map (fun n -> Topology.Implicit_ring n) (size 3);
        map2 (fun w h -> Topology.Implicit_torus (w, h)) (side 3) (side 3);
        map2 (fun n r -> Topology.Implicit_geometric (n, r)) (size 2) (param 1.0);
        map (fun n -> Topology.Implicit_power_law n) (size 8);
      ])

let prop_spec_pp_roundtrip =
  QCheck2.Test.make ~name:"spec_of_string reads back pp_spec" ~count:500
    ~print:(Format.asprintf "%a" Topology.pp_spec) gen_spec (fun spec ->
      Topology.spec_of_string (Format.asprintf "%a" Topology.pp_spec spec) = Ok spec)

(* Parse only: a mutated size can ask for gigabytes, so nothing is
   built from the result. *)
let prop_mutated_specs_never_raise =
  QCheck2.Test.make ~name:"spec_of_string never raises on mutated specs" ~count:2000
    ~print:QCheck2.Print.string
    (Test_latency_stats.gen_mutated
       (QCheck2.Gen.map (Format.asprintf "%a" Topology.pp_spec) gen_spec))
    (fun s ->
      (match Topology.spec_of_string s with Ok _ | Error _ -> ());
      true)

let suite =
  ( "topology",
    [
      Alcotest.test_case "ring" `Quick test_ring;
      Alcotest.test_case "path" `Quick test_path;
      Alcotest.test_case "grid" `Quick test_grid;
      Alcotest.test_case "torus" `Quick test_torus;
      Alcotest.test_case "complete" `Quick test_complete;
      Alcotest.test_case "star" `Quick test_star;
      Alcotest.test_case "binary tree" `Quick test_binary_tree;
      Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
      Alcotest.test_case "erdos-renyi deterministic" `Quick test_erdos_renyi_deterministic;
      Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz;
      Alcotest.test_case "watts-strogatz beta=0" `Quick test_watts_strogatz_zero_beta;
      Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
      Alcotest.test_case "random geometric" `Quick test_random_geometric;
      Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
      Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "spec rejects garbage" `Quick test_spec_rejects_garbage;
      Alcotest.test_case "accepted specs build" `Quick test_spec_accepted_builds;
      QCheck_alcotest.to_alcotest prop_spec_pp_roundtrip;
      QCheck_alcotest.to_alcotest prop_mutated_specs_never_raise;
    ] )
