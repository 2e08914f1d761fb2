(* Tests for latency models, message stats and DOT export. *)

open Cliffedge_graph
module Latency = Cliffedge_net.Latency
module Stats = Cliffedge_net.Stats
module Prng = Cliffedge_prng.Prng

let test_constant () =
  let rng = Prng.create 1 in
  Alcotest.(check (float 0.0)) "constant" 5.0 (Latency.sample (Latency.Constant 5.0) rng)

let test_uniform_bounds () =
  let rng = Prng.create 2 in
  let model = Latency.Uniform { min = 2.0; max = 4.0 } in
  for _ = 1 to 1000 do
    let d = Latency.sample model rng in
    if d < 2.0 || d > 4.0 then Alcotest.failf "out of bounds %f" d
  done

let test_exponential_min () =
  let rng = Prng.create 3 in
  let model = Latency.Exponential { min = 1.0; mean = 2.0 } in
  for _ = 1 to 1000 do
    let d = Latency.sample model rng in
    if d < 1.0 then Alcotest.failf "below min %f" d
  done

let test_negative_clamped () =
  let rng = Prng.create 4 in
  Alcotest.(check (float 0.0)) "clamped" 0.0 (Latency.sample (Latency.Constant (-3.0)) rng)

let test_latency_parse () =
  (match Latency.of_string "const:5" with
  | Ok (Latency.Constant 5.0) -> ()
  | _ -> Alcotest.fail "const:5");
  (match Latency.of_string "uniform:1:10" with
  | Ok (Latency.Uniform { min = 1.0; max = 10.0 }) -> ()
  | _ -> Alcotest.fail "uniform:1:10");
  (match Latency.of_string "exp:1:5" with
  | Ok (Latency.Exponential { min = 1.0; mean = 5.0 }) -> ()
  | _ -> Alcotest.fail "exp:1:5");
  (match Latency.of_string "uniform:10:1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inverted uniform should fail");
  match Latency.of_string "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage should fail"

let test_latency_pp_roundtrip () =
  List.iter
    (fun s ->
      match Latency.of_string s with
      | Ok m -> Alcotest.(check string) "roundtrip" s (Format.asprintf "%a" Latency.pp m)
      | Error e -> Alcotest.fail e)
    [ "const:5"; "uniform:1:10"; "exp:1:5" ]

let test_latency_validation_errors () =
  let expect_error label spec fragment =
    match Latency.of_string spec with
    | Ok _ -> Alcotest.failf "%s: %S should be rejected" label spec
    | Error e ->
        let mem =
          let len = String.length fragment in
          let rec scan i =
            if i + len > String.length e then false
            else if String.equal (String.sub e i len) fragment then true
            else scan (i + 1)
          in
          scan 0
        in
        if not mem then
          Alcotest.failf "%s: error %S does not mention %S" label e fragment
  in
  expect_error "negative constant" "const:-1" "finite and non-negative";
  expect_error "nan" "const:nan" "finite and non-negative";
  expect_error "infinite bound" "uniform:1:inf" "finite and non-negative";
  expect_error "not a number" "uniform:one:2" "not a number";
  expect_error "inverted range" "uniform:10:1" "empty range";
  expect_error "zero mean" "exp:1:0" "mean must be positive"

module Faults = Cliffedge_net.Faults

let test_faults_parse () =
  (match Faults.of_string "drop:0.1,dup:0.02,reorder:3,cut:12-30:4-9" with
  | Ok { Faults.drop = 0.1; dup = 0.02; reorder = 3; cuts = [ cut ] } ->
      Alcotest.(check (float 0.0)) "from" 12.0 cut.Faults.from_time;
      Alcotest.(check (float 0.0)) "until" 30.0 cut.Faults.until_time;
      Alcotest.(check int) "a" 4 (Node_id.to_int cut.Faults.a);
      Alcotest.(check int) "b" 9 (Node_id.to_int cut.Faults.b)
  | Ok _ -> Alcotest.fail "full spec parsed wrong"
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "none" with
  | Ok p -> Alcotest.(check bool) "none is pass-through" true (Faults.is_pass_through p)
  | Error e -> Alcotest.fail e);
  (match Faults.of_string "cut:0-inf:1-2" with
  | Ok { Faults.cuts = [ cut ]; _ } ->
      Alcotest.(check bool) "permanent" true (cut.Faults.until_time = infinity)
  | Ok _ -> Alcotest.fail "permanent cut parsed wrong"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun spec ->
      match Faults.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" spec)
    [
      "drop:1.5";
      "drop:-0.1";
      "dup:nan";
      "reorder:-1";
      "reorder:1.5";
      "cut:30-12:1-2";
      "cut:0-10:1";
      "drop:0.7:oops";
      "garbage";
      "";
    ]

let test_faults_pp_roundtrip () =
  List.iter
    (fun s ->
      match Faults.of_string s with
      | Ok p ->
          Alcotest.(check string) "roundtrip" s (Format.asprintf "%a" Faults.pp p)
      | Error e -> Alcotest.fail e)
    [ "none"; "drop:0.1"; "drop:0.1,dup:0.02,reorder:3,cut:12-30:4-9" ]

let test_faults_reject_self_cut () =
  match Faults.of_string "cut:0-10:3-3" with
  | Error e ->
      Alcotest.(check string) "error"
        "fault spec \"cut:0-10:3-3\": cut endpoints must differ, got 3 twice" e
  | Ok _ -> Alcotest.fail "a cut from a node to itself severs nothing"

(* Times and probabilities are either short decimals, which [%g] prints
   exactly, or full-precision draws, which need up to 17 digits; times
   below 1e-4 print with an exponent's '-'. *)
let decimal_or_draw hi =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> float_of_int k /. 1000.) (int_range 0 (int_of_float (hi *. 1000.)));
        float_bound_inclusive hi;
        float_bound_inclusive 1e-4;
      ])

let gen_latency =
  QCheck2.Gen.(
    let t = decimal_or_draw 1000.0 in
    oneof
      [
        map (fun d -> Latency.Constant d) t;
        map2
          (fun a b -> Latency.Uniform { min = Float.min a b; max = Float.max a b })
          t t;
        map2
          (fun min mean -> Latency.Exponential { min; mean })
          t (float_range 1e-9 1000.0);
      ])

let prop_latency_pp_roundtrip =
  QCheck2.Test.make ~name:"latency of_string reads back pp" ~count:500
    ~print:(Format.asprintf "%a" Latency.pp) gen_latency (fun m ->
      Latency.of_string (Format.asprintf "%a" Latency.pp m) = Ok m)

let gen_faults =
  QCheck2.Gen.(
    let prob = decimal_or_draw 1.0 in
    let cut =
      let* t1 = decimal_or_draw 1000.0 and* t2 = decimal_or_draw 1000.0 in
      let* a = int_bound 100 and* gap = int_range 1 100 in
      let from_time, until_time =
        if t1 < t2 then (t1, t2) else if t2 < t1 then (t2, t1) else (t1, infinity)
      in
      return
        { Faults.from_time; until_time; a = Node_id.of_int a; b = Node_id.of_int (a + gap) }
    in
    let* drop = prob and* dup = prob and* reorder = int_bound 5 in
    let+ cuts = list_size (int_bound 3) cut in
    { Faults.drop; dup; reorder; cuts })

let prop_faults_pp_roundtrip =
  QCheck2.Test.make ~name:"faults of_string reads back pp" ~count:500
    ~print:(Format.asprintf "%a" Faults.pp) gen_faults (fun plan ->
      Faults.of_string (Format.asprintf "%a" Faults.pp plan) = Ok plan)

(* Specs as a hand or a script gets them wrong: a valid spec with one
   to four mutations, each a byte replaced, a byte deleted, two spans
   swapped, or a hostile token inserted.  Shared with the topology
   spec fuzz. *)
let gen_mutated valid =
  QCheck2.Gen.(
    let tokens =
      [ "nan"; "-inf"; "inf"; "1e308"; "4611686018427387904"; "-1"; "0"; ":"; "-"; "," ]
    in
    let mutate s =
      let n = String.length s in
      let cut i j = String.sub s i (j - i) in
      let replace =
        let* i = int_bound (n - 1) and* c = oneof [ char; oneofl [ ':'; '-'; ','; 'x'; '.'; 'e' ] ] in
        return (String.mapi (fun j d -> if Int.equal i j then c else d) s)
      in
      let delete =
        let+ i = int_bound (n - 1) in
        cut 0 i ^ cut (i + 1) n
      in
      let swap =
        let+ points = list_repeat 4 (int_bound n) in
        match List.sort Int.compare points with
        | [ a; b; c; d ] -> cut 0 a ^ cut c d ^ cut b c ^ cut a b ^ cut d n
        | _ -> s
      in
      let insert =
        let+ i = int_bound n and+ token = oneofl tokens in
        cut 0 i ^ token ^ cut i n
      in
      if Int.equal n 0 then insert else oneof [ replace; delete; swap; insert ]
    in
    let rec mutations k s = if Int.equal k 0 then return s else mutate s >>= mutations (k - 1) in
    let* s = valid and* k = int_range 1 4 in
    mutations k s)

(* A malformed spec is an [Error], never an exception. *)
let prop_mutated_specs_never_raise =
  QCheck2.Test.make ~name:"latency and fault parsers never raise on mutated specs"
    ~count:2000 ~print:QCheck2.Print.string
    (gen_mutated
       QCheck2.Gen.(
         oneof
           [
             map (Format.asprintf "%a" Latency.pp) gen_latency;
             map (Format.asprintf "%a" Faults.pp) gen_faults;
           ]))
    (fun s ->
      (match Latency.of_string s with Ok _ | Error _ -> ());
      (match Faults.of_string s with Ok _ | Error _ -> ());
      true)

let test_faults_cut_active () =
  match Faults.of_string "cut:10-20:1-2" with
  | Error e -> Alcotest.fail e
  | Ok p ->
      let n = Node_id.of_int in
      let active ~src ~dst ~time = Faults.cut_active p ~src:(n src) ~dst:(n dst) ~time in
      Alcotest.(check bool) "forward, inside" true (active ~src:1 ~dst:2 ~time:10.0);
      Alcotest.(check bool) "reverse, inside" true (active ~src:2 ~dst:1 ~time:15.0);
      Alcotest.(check bool) "before window" false (active ~src:1 ~dst:2 ~time:9.9);
      Alcotest.(check bool) "end exclusive" false (active ~src:1 ~dst:2 ~time:20.0);
      Alcotest.(check bool) "other pair" false (active ~src:1 ~dst:3 ~time:15.0)

let n = Node_id.of_int

let test_stats_counters () =
  let s = Stats.create () in
  Stats.record_send s ~src:(n 1) ~dst:(n 2) ~units:3;
  Stats.record_send s ~src:(n 1) ~dst:(n 2) ~units:2;
  Stats.record_send s ~src:(n 2) ~dst:(n 1) ~units:1;
  Stats.record_delivery s;
  Stats.record_delivery s;
  Stats.record_drop s;
  Alcotest.(check int) "sent" 3 (Stats.sent s);
  Alcotest.(check int) "units" 6 (Stats.units_sent s);
  Alcotest.(check int) "delivered" 2 (Stats.delivered s);
  Alcotest.(check int) "dropped" 1 (Stats.dropped s);
  Alcotest.(check int) "pair 1->2" 2 (Stats.pair_count s ~src:(n 1) ~dst:(n 2));
  Alcotest.(check int) "pair 2->1" 1 (Stats.pair_count s ~src:(n 2) ~dst:(n 1));
  Alcotest.(check int) "pair 1->3" 0 (Stats.pair_count s ~src:(n 1) ~dst:(n 3));
  Alcotest.(check int) "pairs" 2 (List.length (Stats.pairs s));
  Alcotest.(check (list int)) "communicating" [ 1; 2 ]
    (Node_set.to_ints (Stats.communicating_nodes s))

let test_stats_fault_counters () =
  let s = Stats.create () in
  let quiet = Format.asprintf "%a" Stats.pp s in
  Stats.record_fault_drop s;
  Stats.record_fault_drop s;
  Stats.record_duplicate s;
  Stats.record_retransmit s;
  Stats.record_dedup s;
  Alcotest.(check int) "fault drops" 2 (Stats.fault_dropped s);
  Alcotest.(check int) "duplicates" 1 (Stats.duplicated s);
  Alcotest.(check int) "retransmits" 1 (Stats.retransmitted s);
  Alcotest.(check int) "dedups" 1 (Stats.deduped s);
  let noisy = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "pp grows a fault suffix" true
    (String.length noisy > String.length quiet);
  Alcotest.(check bool) "suffix mentions losses" true
    (let sub = "2 lost" in
     let len = String.length sub in
     let rec scan i =
       if i + len > String.length noisy then false
       else if String.equal (String.sub noisy i len) sub then true
       else scan (i + 1)
     in
     scan 0)

let test_dot_output () =
  let g = Graph.of_edges [ (0, 1); (1, 2) ] in
  let style =
    {
      Dot.crashed = Node_set.of_ints [ 1 ];
      border = Node_set.of_ints [ 0; 2 ];
      names = Node_id.Names.of_list [ (n 0, "alpha") ];
    }
  in
  let s = Dot.to_string ~style g in
  let mem sub = Alcotest.(check bool) sub true
    (let len = String.length sub in
     let rec scan i =
       if i + len > String.length s then false
       else if String.sub s i len = sub then true
       else scan (i + 1)
     in
     scan 0)
  in
  mem "graph cliffedge";
  mem "0 -- 1";
  mem "1 -- 2";
  mem "alpha";
  mem "indianred1";
  mem "orange"

let suite =
  ( "latency/stats/dot",
    [
      Alcotest.test_case "constant" `Quick test_constant;
      Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
      Alcotest.test_case "exponential min" `Quick test_exponential_min;
      Alcotest.test_case "negative clamped" `Quick test_negative_clamped;
      Alcotest.test_case "parse" `Quick test_latency_parse;
      Alcotest.test_case "pp roundtrip" `Quick test_latency_pp_roundtrip;
      Alcotest.test_case "validation errors" `Quick test_latency_validation_errors;
      Alcotest.test_case "faults parse" `Quick test_faults_parse;
      Alcotest.test_case "faults pp roundtrip" `Quick test_faults_pp_roundtrip;
      Alcotest.test_case "faults reject self cut" `Quick test_faults_reject_self_cut;
      Alcotest.test_case "faults cut active" `Quick test_faults_cut_active;
      QCheck_alcotest.to_alcotest prop_latency_pp_roundtrip;
      QCheck_alcotest.to_alcotest prop_faults_pp_roundtrip;
      QCheck_alcotest.to_alcotest prop_mutated_specs_never_raise;
      Alcotest.test_case "stats counters" `Quick test_stats_counters;
      Alcotest.test_case "stats fault counters" `Quick test_stats_fault_counters;
      Alcotest.test_case "dot output" `Quick test_dot_output;
    ] )
