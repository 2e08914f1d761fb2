(* Unit and property tests for the SplitMix64 generator. *)

module Prng = Cliffedge_prng.Prng

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let va = List.init 8 (fun _ -> Prng.next_int64 a) in
  let vb = List.init 8 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "different seeds diverge" false (va = vb)

let test_copy_replays () =
  let a = Prng.create 7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  let va = List.init 16 (fun _ -> Prng.next_int64 a) in
  let vb = List.init 16 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "copy replays the future stream" true (va = vb)

let test_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let va = List.init 8 (fun _ -> Prng.next_int64 a) in
  let vb = List.init 8 (fun _ -> Prng.next_int64 b) in
  Alcotest.(check bool) "split streams differ" false (va = vb)

let test_int_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of range: %d" x
  done

let test_int_rejects_nonpositive () =
  let rng = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_int_in_range () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Prng.int_in_range rng ~min:(-5) ~max:5 in
    if x < -5 || x > 5 then Alcotest.failf "out of range: %d" x
  done

let test_int_covers_range () =
  let rng = Prng.create 11 in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Prng.int rng 4) <- true
  done;
  Alcotest.(check bool) "all residues drawn" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.float rng 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.failf "out of range: %f" x
  done

let test_bool_both_sides () =
  let rng = Prng.create 13 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool rng then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 350 && !trues < 650)

let test_choose () =
  let rng = Prng.create 17 in
  for _ = 1 to 100 do
    let x = Prng.choose rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem x [ 1; 2; 3 ])
  done

let test_choose_empty () =
  let rng = Prng.create 17 in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (Prng.choose rng []))

let test_shuffle_permutes () =
  let rng = Prng.create 19 in
  let original = Array.init 20 Fun.id in
  let shuffled = Array.copy original in
  Prng.shuffle rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check bool) "same multiset" true (sorted = original);
  Alcotest.(check bool) "actually moved something" true (shuffled <> original)

let test_sample_distinct () =
  let rng = Prng.create 23 in
  let xs = List.init 30 Fun.id in
  let s = Prng.sample rng 10 xs in
  Alcotest.(check int) "size" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s))

let test_sample_whole_list () =
  let rng = Prng.create 23 in
  let s = Prng.sample rng 3 [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "permutation of all" [ 1; 2; 3 ] (List.sort compare s)

let test_exponential_positive () =
  let rng = Prng.create 29 in
  for _ = 1 to 1000 do
    let x = Prng.exponential rng ~mean:5.0 in
    if x < 0.0 then Alcotest.failf "negative draw %f" x
  done

let test_exponential_mean () =
  let rng = Prng.create 31 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Prng.exponential rng ~mean:5.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (mean > 4.5 && mean < 5.5)

let suite =
  ( "prng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "copy replays" `Quick test_copy_replays;
      Alcotest.test_case "split independence" `Quick test_split_independent;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "int rejects bound <= 0" `Quick test_int_rejects_nonpositive;
      Alcotest.test_case "int_in_range bounds" `Quick test_int_in_range;
      Alcotest.test_case "int covers range" `Quick test_int_covers_range;
      Alcotest.test_case "float bounds" `Quick test_float_bounds;
      Alcotest.test_case "bool fairness" `Quick test_bool_both_sides;
      Alcotest.test_case "choose membership" `Quick test_choose;
      Alcotest.test_case "choose empty" `Quick test_choose_empty;
      Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
      Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
      Alcotest.test_case "sample whole list" `Quick test_sample_whole_list;
      Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
      Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    ] )
