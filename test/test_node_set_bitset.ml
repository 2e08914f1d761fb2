(* Model-based equivalence of the bitset-backed Node_set against the
   reference Stdlib functorial set, on random dense, sparse/high-id,
   huge-id and empty sets.  The protocol's determinism (and the region ranking's
   tie-break) relies on the bitset reproducing Set.Make's observable
   behaviour exactly: ascending iteration order and the lexicographic
   [compare].  Also checks the memoized border geometry of Graph. *)

open Cliffedge_graph
module Prng = Cliffedge_prng.Prng
module R = Set.Make (Int)

let sign c = if c < 0 then -1 else if c > 0 then 1 else 0

let fail fmt = QCheck2.Test.fail_reportf fmt

(* Mixes dense low ids, sparse high ids (word-boundary stress around
   63/126), ids spread up to 2^40 or clustered just below 10^6 (the top
   of the million-node rings), and the empty set. *)
let gen_huge_id =
  QCheck2.Gen.(oneof [ int_range 0 (1 lsl 40); int_range 999_800 999_999 ])

let gen_ids =
  QCheck2.Gen.(
    oneof
      [
        list_size (int_range 0 30) (int_range 0 40);
        list_size (int_range 0 12) (int_range 0 4000);
        list_size (int_range 0 20)
          (oneof [ int_range 0 8; int_range 60 68; int_range 120 130 ]);
        list_size (int_range 0 20) gen_huge_id;
        return [];
      ])

let gen_pair = QCheck2.Gen.pair gen_ids gen_ids

let set_of = Node_set.of_ints

let ref_of = R.of_list

let ids = Node_set.to_ints

let check_same label xs s r =
  if ids s <> R.elements r then
    fail "%s on %a: bitset %a <> reference %a" label
      Fmt.(Dump.list int)
      xs
      Fmt.(Dump.list int)
      (ids s)
      Fmt.(Dump.list int)
      (R.elements r)

let prop_algebra =
  QCheck2.Test.make ~name:"set algebra matches reference model" ~count:500 gen_pair
    (fun (xs, ys) ->
      let s = set_of xs and t = set_of ys in
      let rs = ref_of xs and rt = ref_of ys in
      check_same "of_ints" xs s rs;
      check_same "union" xs (Node_set.union s t) (R.union rs rt);
      check_same "inter" xs (Node_set.inter s t) (R.inter rs rt);
      check_same "diff" xs (Node_set.diff s t) (R.diff rs rt);
      if Node_set.subset s t <> R.subset rs rt then fail "subset mismatch";
      if Node_set.disjoint s t <> R.disjoint rs rt then fail "disjoint mismatch";
      if Node_set.equal s t <> R.equal rs rt then fail "equal mismatch";
      if sign (Node_set.compare s t) <> sign (R.compare rs rt) then
        fail "compare %a %a: bitset %d, reference %d"
          Fmt.(Dump.list int)
          xs
          Fmt.(Dump.list int)
          ys
          (Node_set.compare s t) (R.compare rs rt);
      if Node_set.compare s s <> 0 then fail "compare not reflexive";
      if Node_set.cardinal s <> R.cardinal rs then fail "cardinal mismatch";
      true)

let prop_elementwise =
  QCheck2.Test.make ~name:"element operations match reference model" ~count:500
    QCheck2.Gen.(pair gen_ids (oneof [ int_range 0 4100; gen_huge_id ]))
    (fun (xs, probe) ->
      let s = set_of xs and rs = ref_of xs in
      let p = Node_id.of_int probe in
      if Node_set.mem p s <> R.mem probe rs then fail "mem %d mismatch" probe;
      check_same "add" xs (Node_set.add p s) (R.add probe rs);
      check_same "remove" xs (Node_set.remove p s) (R.remove probe rs);
      if Node_set.mem p s then begin
        if not (Node_set.add p s == s) then fail "add of member must be phys-equal"
      end
      else if not (Node_set.remove p s == s) then
        fail "remove of non-member must be phys-equal";
      (if ids (Node_set.singleton p) <> [ probe ] then fail "singleton mismatch");
      let omin = Option.map Node_id.to_int (Node_set.min_elt_opt s) in
      if omin <> R.min_elt_opt rs then fail "min_elt_opt mismatch";
      let omax = Option.map Node_id.to_int (Node_set.max_elt_opt s) in
      if omax <> R.max_elt_opt rs then fail "max_elt_opt mismatch";
      (* iteration order is ascending, and fold agrees with iter *)
      let seen = ref [] in
      Node_set.iter (fun q -> seen := Node_id.to_int q :: !seen) s;
      if List.rev !seen <> ids s then fail "iter order mismatch";
      let folded = Node_set.fold (fun q acc -> Node_id.to_int q :: acc) s [] in
      if List.rev folded <> ids s then fail "fold order mismatch";
      true)

let prop_higher_order =
  QCheck2.Test.make ~name:"higher-order operations match reference model" ~count:500
    QCheck2.Gen.(pair gen_ids (int_range 1 7))
    (fun (xs, k) ->
      let s = set_of xs and rs = ref_of xs in
      let keep i = i mod k = 0 in
      let keep_id p = keep (Node_id.to_int p) in
      check_same "filter" xs (Node_set.filter keep_id s) (R.filter keep rs);
      if not (Node_set.filter (fun _ -> true) s == s) then
        fail "filter keeping everything must be phys-equal";
      if Node_set.for_all keep_id s <> R.for_all keep rs then fail "for_all mismatch";
      if Node_set.exists keep_id s <> R.exists keep rs then fail "exists mismatch";
      if Node_set.hash s <> Node_set.hash (Node_set.of_list (Node_set.elements s)) then
        fail "hash must agree on equal sets";
      true)

(* Sorted (index, word) pairs keep only non-zero words, and each holds a
   member, so a set's weight follows its content, not its largest id. *)
let prop_words_bound =
  QCheck2.Test.make ~name:"a set weighs at most two words per member" ~count:500 gen_ids
    (fun xs ->
      let s = set_of xs in
      if Node_set.words s > 2 * Node_set.cardinal s then
        fail "%a weighs %d words for %d member(s)"
          Fmt.(Dump.list int)
          xs (Node_set.words s) (Node_set.cardinal s);
      true)

let prop_random_draws =
  QCheck2.Test.make ~name:"random_element/random_subset stay inside the set"
    ~count:300
    QCheck2.Gen.(pair gen_ids (int_range 0 1000))
    (fun (xs, seed) ->
      let s = set_of xs in
      if not (Node_set.is_empty s) then begin
        let draw () = Node_set.random_element (Prng.create seed) s in
        if not (Node_set.mem (draw ()) s) then fail "random_element outside set";
        if not (Node_id.equal (draw ()) (draw ())) then
          fail "random_element must be deterministic in the seed"
      end;
      let sub =
        Node_set.random_subset (Prng.create seed) s ~keep_probability:0.5
      in
      if not (Node_set.subset sub s) then fail "random_subset not a subset";
      if
        not
          (Node_set.equal s
             (Node_set.random_subset (Prng.create seed) s ~keep_probability:1.0))
      then fail "keep_probability 1.0 must keep everything";
      true)

(* ------------------------------------------------------------------ *)
(* Cached border geometry                                              *)

(* The paper-literal definition, bypassing the cache. *)
let reference_border g s =
  Node_set.fold
    (fun p acc -> Node_set.union acc (Node_set.diff (Graph.neighbours g p) s))
    s Node_set.empty

let prop_border_memo =
  QCheck2.Test.make ~name:"memoized border agrees with the definition" ~count:200
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 10))
    (fun (seed, size) ->
      let rng = Prng.create seed in
      let graph =
        match Prng.int rng 3 with
        | 0 -> Topology.ring 24
        | 1 -> Topology.torus 6 6
        | _ -> Topology.erdos_renyi rng 30 ~p:0.15
      in
      let region =
        Cliffedge_workload.Fault_gen.connected_region rng graph
          ~size:(min size (Graph.node_count graph))
      in
      let first = Graph.border graph region in
      if not (Node_set.equal first (reference_border graph region)) then
        fail "border differs from the definition";
      if not (Graph.border graph region == first) then
        fail "second border call must hit the memo table";
      let closed = Graph.closed_neighbourhood graph region in
      if not (Node_set.equal closed (Node_set.union region first)) then
        fail "closed_neighbourhood inconsistent with border";
      true)

let test_border_cache_not_shared_across_derived_graphs () =
  let g = Topology.path 3 in
  let region = Node_set.of_ints [ 1 ] in
  let b1 = Graph.border g region in
  Alcotest.(check (list int)) "border in path3" [ 0; 2 ] (Node_set.to_ints b1);
  (* Deriving a graph must not inherit the memoized geometry. *)
  let g2 = Graph.add_edge (Node_id.of_int 1) (Node_id.of_int 7) g in
  Alcotest.(check (list int))
    "border in derived graph sees the new edge" [ 0; 2; 7 ]
    (Node_set.to_ints (Graph.border g2 region));
  (* ... and the original graph's cache still answers the old query. *)
  Alcotest.(check (list int))
    "original graph unchanged" [ 0; 2 ]
    (Node_set.to_ints (Graph.border g region))

(* ------------------------------------------------------------------ *)
(* Hash spread                                                         *)

(* [Hashtbl.Make] buckets on [hash s land (b - 1)], so the memos only
   answer in one probe if those low bits see every member.  The three
   input families are the shapes the memos are keyed on; a random
   function spreads n keys over [b (1 - (1 - 1/b)^n)] buckets on
   average, and the fingerprint must reach at least 75% of that (a bare
   multiplicative FNV-1a accumulation reaches 20%, 20% and 12%). *)
let buckets_used sets b =
  let seen = Hashtbl.create b in
  List.iter (fun s -> Hashtbl.replace seen (Node_set.hash s land (b - 1)) ()) sets;
  Hashtbl.length seen

let check_spread label sets b =
  let n = float_of_int (List.length sets) and fb = float_of_int b in
  let random = fb *. (1.0 -. ((1.0 -. (1.0 /. fb)) ** n)) in
  let used = buckets_used sets b in
  if float_of_int used < 0.75 *. random then
    Alcotest.failf "%s: %d keys use %d of %d buckets (a random function: %.0f)"
      label (List.length sets) used b random

let torus16 = Topology.torus 16 16

(* Every connected 3-node region of the 16x16 torus is a path u - v - w
   with a unique middle node (the torus has no triangles): 256 middles
   times C(4, 2) neighbour pairs. *)
let connected_triples g =
  List.concat_map
    (fun v ->
      let ns = Node_set.elements (Graph.neighbours g v) in
      List.concat_map
        (fun u ->
          List.filter_map
            (fun w ->
              if Node_id.compare u w < 0 then Some (Node_set.of_list [ u; v; w ])
              else None)
            ns)
        ns)
    (Node_set.elements (Graph.nodes g))

let test_hash_spread () =
  check_spread "singletons {0}..{1023}"
    (List.init 1024 (fun i -> Node_set.of_ints [ i ]))
    1024;
  let edges =
    List.map (fun (u, v) -> Node_set.of_list [ u; v ]) (Graph.edges torus16)
  in
  Alcotest.(check int) "torus edges" 512 (List.length edges);
  check_spread "16x16 torus edges" edges 1024;
  let triples = connected_triples torus16 in
  Alcotest.(check int) "connected 3-node regions" 1536 (List.length triples);
  check_spread "16x16 torus connected 3-node regions" triples 4096

let suite =
  ( "node-set bitset",
    [
      QCheck_alcotest.to_alcotest prop_algebra;
      QCheck_alcotest.to_alcotest prop_elementwise;
      QCheck_alcotest.to_alcotest prop_higher_order;
      QCheck_alcotest.to_alcotest prop_words_bound;
      QCheck_alcotest.to_alcotest prop_random_draws;
      QCheck_alcotest.to_alcotest prop_border_memo;
      Alcotest.test_case "border cache is per-graph" `Quick
        test_border_cache_not_shared_across_derived_graphs;
      Alcotest.test_case "hash spreads over low bits" `Quick test_hash_spread;
    ] )
