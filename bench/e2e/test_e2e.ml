(* Pins the benchmark's definitions: decision latency, the percentile
   and tail-support rule, the quartiles the spreads are computed from,
   the best-group rule behind op_p50_us and ops_per_s, and the agree
   verdicts. *)

open E2e_bench
open Cliffedge_graph

let n = Node_id.of_int

let decision ~time view : string Cliffedge.Runner.decision =
  { node = n 0; view = Node_set.of_ints view; value = "v"; time; event = None }

let floats = Alcotest.(list (float 1e-9))

(* A cascade: 2 crashes at 10, 3 at 35, and a repeated kill of 2 at 50
   that the runner ignores. *)
let crashes = [ (10., n 2); (35., n 3); (50., n 2) ]

let decide_vt_latest_crash () =
  Alcotest.check floats "view {2,3} decided at 60: 60 - 35" [ 25. ]
    (Sample.decide_vt ~crashes [ decision ~time:60. [ 2; 3 ] ]);
  Alcotest.check floats "view {2} decided at 18: the first kill of 2 counts" [ 8. ]
    (Sample.decide_vt ~crashes [ decision ~time:18. [ 2 ] ])

let decide_vt_no_sample () =
  Alcotest.check floats "an op without decisions gives no sample" []
    (Sample.decide_vt ~crashes []);
  Alcotest.check floats "a view naming a node never crashed gives no sample" [ 5. ]
    (Sample.decide_vt ~crashes [ decision ~time:40. [ 3; 7 ]; decision ~time:40. [ 3 ] ])

let percentile_nearest_rank () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Sample.percentile xs 50.);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Sample.percentile xs 90.);
  Alcotest.(check (float 0.)) "p90 of one sample" 7. (Sample.percentile [| 7. |] 90.)

let tail_support () =
  Alcotest.(check int) "100 samples: 10 beyond p90" 10 (Sample.beyond ~n:100 90.);
  Alcotest.(check bool) "100 samples support p90" true (Sample.tail_supported ~n:100 90.);
  Alcotest.(check bool) "99 samples do not" false (Sample.tail_supported ~n:99 90.);
  Alcotest.(check bool) "no samples support nothing" false (Sample.tail_supported ~n:0 90.)

let quartiles_match_python () =
  let check label expected xs =
    let q1, q3 = Sample.quartiles (Sample.sorted xs) in
    Alcotest.(check (pair (float 1e-12) (float 1e-12))) label expected (q1, q3)
  in
  (* statistics.quantiles(data, n=4) *)
  check "1..10" (2.75, 8.25) (Array.init 10 (fun i -> float_of_int (i + 1)));
  check "two samples" (0.75, 2.25) [| 2.; 1. |];
  check "odd count" (10.25, 21.25) [| 10.; 12.5; 11.; 30.; 10.5 |];
  Alcotest.(check (float 1e-12)) "median, even count" 5.5
    (Sample.median (Array.init 10 (fun i -> float_of_int (i + 1))))

(* [n] back-to-back ops, op [i] taking [dur i] ns. *)
let timeline n dur =
  let tl = { Measure.starts = Measure.Buf.create (); times = Measure.Buf.create () } in
  let t = ref 0. in
  for i = 0 to n - 1 do
    Measure.Buf.push tl.starts !t;
    Measure.Buf.push tl.times (dur i);
    t := !t +. dur i
  done;
  tl

let best_group () =
  (* 250 ops make two groups of 125; the second runs at half speed. *)
  let gs = Measure.groups (timeline 250 (fun i -> if i < 125 then 1000. else 2000.)) in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-6))))
    "per-group median ns and ops/s"
    [ (1000., 1e6); (2000., 5e5) ]
    (List.map (fun (g : Measure.group) -> (g.median_ns, g.ops_per_s)) gs);
  Alcotest.(check (float 0.)) "lowest median" 1000.
    (Measure.best (fun (g : Measure.group) -> g.median_ns) ( < ) gs);
  Alcotest.(check (float 1e-6)) "highest throughput" 1e6
    (Measure.best (fun (g : Measure.group) -> g.ops_per_s) ( > ) gs);
  Alcotest.(check int) "fewer than 200 ops: one group" 1
    (List.length (Measure.groups (timeline 199 (fun _ -> 1.))));
  Alcotest.(check int) "at most 20 groups" 20
    (List.length (Measure.groups (timeline 100_000 (fun _ -> 1.))))

let agree_verdicts () =
  let d = { Report.name = "op_p50_us"; unit = "us"; lower_is_better = true; bound = 0.1 } in
  let set k = Sample.sorted (Array.init 10 (fun i -> k *. (100. +. float_of_int i))) in
  let verdict a b = Report.verdict_name (snd (Report.compare_sets d a b)) in
  Alcotest.(check string) "same runs" "agree" (verdict (set 1.) (set 1.));
  Alcotest.(check string) "20% slower" "worse" (verdict (set 1.) (set 1.2));
  Alcotest.(check string) "20% faster" "better" (verdict (set 1.) (set 0.8));
  let wide = Sample.sorted (Array.init 10 (fun i -> 50. +. (20. *. float_of_int i))) in
  Alcotest.(check string) "spread wider than the bound" "unresolved" (verdict (set 1.) wide)

let () =
  Alcotest.run "e2e"
    [
      ( "decide_vt",
        [
          Alcotest.test_case "latest crash in the view" `Quick decide_vt_latest_crash;
          Alcotest.test_case "ops without samples" `Quick decide_vt_no_sample;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick percentile_nearest_rank;
          Alcotest.test_case "ten samples beyond the tail" `Quick tail_support;
          Alcotest.test_case "quartiles as python computes them" `Quick quartiles_match_python;
          Alcotest.test_case "best group of consecutive ops" `Quick best_group;
        ] );
      ("agree", [ Alcotest.test_case "verdicts" `Quick agree_verdicts ]);
    ]
