(* The causal observability layer (lib/obs): log invariants, histogram
   bucketing, derived metrics, export determinism, and the checker's
   event citations.  The two qcheck properties pin the layer's core
   contracts: causal parents precede their children on arbitrary lossy
   runs, and network stats counters never go backwards. *)

open Cliffedge_graph
module Obs = Cliffedge_obs
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module Prng = Cliffedge_prng.Prng
module Fault_gen = Cliffedge_workload.Fault_gen
module Stats = Cliffedge_net.Stats
module Transport = Cliffedge_net.Transport
module Faults = Cliffedge_net.Faults
module Json = Cliffedge_report.Json

let n = Node_id.of_int

let run ?options graph crashes =
  Runner.run ?options ~graph ~crashes ~propose_value:Scenario.default_propose ()

let crash_all at region = List.map (fun p -> (at, p)) (Node_set.elements region)

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)

let test_log_records_and_finds () =
  let log = Obs.Log.create () in
  let a = Obs.Log.record log ~time:1.0 ~node:(n 3) Obs.Event.Crash in
  let b =
    Obs.Log.record log ~time:2.5 ~node:(n 4) ~parent:a
      (Obs.Event.Suspect { target = n 3 })
  in
  Alcotest.(check int) "dense ids" 0 a;
  Alcotest.(check int) "dense ids" 1 b;
  Alcotest.(check int) "length" 2 (Obs.Log.length log);
  (match Obs.Log.find log b with
  | Some e ->
      Alcotest.(check int) "seq" b e.Obs.Event.seq;
      Alcotest.(check (option int)) "parent" (Some a) e.Obs.Event.parent
  | None -> Alcotest.fail "recorded event not found");
  Alcotest.(check bool) "out of range" true (Obs.Log.find log 99 = None)

let test_log_rejects_bad_records () =
  let log = Obs.Log.create () in
  Alcotest.check_raises "nan time"
    (Invalid_argument "Obs.Log.record: NaN time") (fun () ->
      ignore (Obs.Log.record log ~time:Float.nan ~node:(n 0) Obs.Event.Crash));
  Alcotest.check_raises "future parent"
    (Invalid_argument "Obs.Log.record: causal parent must be an already-recorded event") (fun () ->
      ignore (Obs.Log.record log ~time:1.0 ~node:(n 0) ~parent:0 Obs.Event.Crash))

let test_context_restored () =
  let log = Obs.Log.create () in
  let a = Obs.Log.record log ~time:1.0 ~node:(n 0) Obs.Event.Crash in
  Alcotest.(check (option int)) "idle" None (Obs.Log.context log);
  Obs.Log.with_context log a (fun () ->
      Alcotest.(check (option int)) "inside" (Some a) (Obs.Log.context log));
  Alcotest.(check (option int)) "restored" None (Obs.Log.context log);
  (try
     Obs.Log.with_context log a (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (option int)) "restored on raise" None (Obs.Log.context log)

(* Log growth allocates young: segments are at most 256 words and the
   directories' filler is a static atom, so [Array.make] never has a
   young filler to promote.  The 4 096 events and their boxed times and
   parents are ~42k words, well inside the default 256k-word minor
   heap, so any minor collection here would be one the log forced. *)
let test_log_growth_no_minor_gc () =
  let log = Obs.Log.create () in
  let kind = Obs.Event.Send { dst = n 1; units = 1 } in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for i = 0 to 4095 do
    let parent = if i > 0 then Some (i - 1) else None in
    ignore (Obs.Log.record log ~time:(float_of_int i) ~node:(n 0) ?parent kind)
  done;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "events" 4096 (Obs.Log.length log);
  Alcotest.(check int) "minor collections" 0 (after - before)

(* Random records read back identically through every reader: all
   twelve kinds, with and without instance and parent, ids and payloads
   up to [max_int - 1], and logs long enough to cross many 32-event
   segments and the directories' doublings. *)
let gen_big =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 40; int_range (max_int - 40) (max_int - 1); int_range 0 (max_int - 1);
      ])

let gen_kind =
  let open QCheck2.Gen in
  let id = map n gen_big in
  oneof
    [
      return Obs.Event.Crash;
      map (fun target -> Obs.Event.Suspect { target }) id;
      map2 (fun dst units -> Obs.Event.Send { dst; units }) id gen_big;
      map (fun src -> Obs.Event.Deliver { src }) id;
      map3
        (fun dst attempt frames -> Obs.Event.Retransmit { dst; attempt; frames })
        id gen_big gen_big;
      map (fun dst -> Obs.Event.Stall { dst }) id;
      return Obs.Event.Propose;
      return Obs.Event.Reject;
      map (fun round -> Obs.Event.Round { round }) gen_big;
      return Obs.Event.Abort;
      map (fun success -> Obs.Event.Early_outcome { success }) bool;
      return Obs.Event.Decide;
    ]

(* (time, node, instance, parent draw, kind); the parent draw becomes a
   parent below the event's own seq when the log is built. *)
let gen_record =
  QCheck2.Gen.(
    tup5
      (map (fun f -> if Float.is_nan f then 0.0 else f) float)
      (map n gen_big)
      (opt (map Node_set.of_ints (list_size (int_range 0 4) gen_big)))
      (opt nat) gen_kind)

let same_event (a : Obs.Event.t) (b : Obs.Event.t) =
  Int.equal a.seq b.seq
  && Int64.equal (Int64.bits_of_float a.time) (Int64.bits_of_float b.time)
  && Node_id.equal a.node b.node
  && Option.equal Node_set.equal a.instance b.instance
  && Option.equal Int.equal a.parent b.parent
  && a.kind = b.kind

let check_log_roundtrip records =
  let log = Obs.Log.create () in
  let expected =
    List.mapi
      (fun seq (time, node, instance, draw, kind) ->
        let parent =
          match draw with Some d when seq > 0 -> Some (d mod seq) | _ -> None
        in
        let got = Obs.Log.record log ~time ~node ?instance ?parent kind in
        if not (Int.equal got seq) then
          QCheck2.Test.fail_reportf "record #%d returned %d" seq got;
        { Obs.Event.seq; time; node; instance; parent; kind })
      records
  in
  let fail_at how (e : Obs.Event.t) =
    QCheck2.Test.fail_reportf "%s: event #%d reads back as something else: expected %a"
      how e.seq Obs.Event.pp e
  in
  let len = List.length expected in
  if not (Int.equal (Obs.Log.length log) len) then
    QCheck2.Test.fail_reportf "length %d, expected %d" (Obs.Log.length log) len;
  List.iter2
    (fun e got -> if not (same_event e got) then fail_at "to_list" e)
    expected (Obs.Log.to_list log);
  let iterated = ref [] in
  Obs.Log.iter log (fun e -> iterated := e :: !iterated);
  List.iter2
    (fun e got -> if not (same_event e got) then fail_at "iter" e)
    expected (List.rev !iterated);
  List.iter
    (fun (e : Obs.Event.t) ->
      match Obs.Log.find log e.seq with
      | Some got when same_event e got -> ()
      | Some _ | None -> fail_at "find" e)
    expected;
  Obs.Log.find log (-1) = None && Obs.Log.find log len = None

let prop_log_roundtrip =
  QCheck2.Test.make ~name:"log reads back what it recorded" ~count:40
    QCheck2.Gen.(list_size (int_range 0 4200) gen_record)
    check_log_roundtrip

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let test_hist_bucketing () =
  let h = Obs.Hist.create () in
  Alcotest.(check bool) "fresh empty" true (Obs.Hist.is_empty h);
  List.iter (Obs.Hist.add h) [ 0.5; 1.5; 3.0; 100.0 ];
  Alcotest.(check int) "count" 4 (Obs.Hist.count h);
  Alcotest.(check (float 1e-9)) "mean" 26.25 (Obs.Hist.mean h);
  let buckets =
    List.map (fun (lo, hi, k) -> (int_of_float lo, int_of_float hi, k))
      (Obs.Hist.buckets h)
  in
  Alcotest.(check (list (triple int int int)))
    "powers of two"
    [ (0, 1, 1); (1, 2, 1); (2, 4, 1); (64, 128, 1) ]
    buckets

let test_hist_open_bucket () =
  let h = Obs.Hist.create () in
  Obs.Hist.add h 1e9;
  (match Obs.Hist.buckets h with
  | [ (_, hi, 1) ] ->
      Alcotest.(check bool) "open-ended" true (hi = Float.infinity)
  | _ -> Alcotest.fail "expected a single open bucket");
  Alcotest.check_raises "nan sample"
    (Invalid_argument "Obs.Hist.add: NaN or negative sample") (fun () ->
      Obs.Hist.add h Float.nan);
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Obs.Hist.add: NaN or negative sample") (fun () ->
      Obs.Hist.add h (-1.0))

let test_hist_json () =
  let h = Obs.Hist.create () in
  (match Obs.Hist.to_json h with
  | Json.Obj [ ("count", Json.Int 0) ] -> ()
  | other -> Alcotest.failf "empty json: %s" (Json.to_string other));
  Obs.Hist.add h 3.0;
  match Obs.Hist.to_json h with
  | Json.Obj fields ->
      Alcotest.(check bool) "has buckets" true (List.mem_assoc "buckets" fields)
  | _ -> Alcotest.fail "expected an object"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let test_metrics_from_handmade_log () =
  let log = Obs.Log.create () in
  let inst = Node_set.of_ints [ 3; 4 ] in
  (* fd: crash at 10, causally-derived suspicion at 14 -> lag 4 *)
  let c = Obs.Log.record log ~time:10.0 ~node:(n 3) Obs.Event.Crash in
  ignore
    (Obs.Log.record log ~time:14.0 ~node:(n 2) ~parent:c
       (Obs.Event.Suspect { target = n 3 }));
  (* false suspicion (no crash parent): excluded from fd lag *)
  ignore
    (Obs.Log.record log ~time:15.0 ~node:(n 5)
       (Obs.Event.Suspect { target = n 6 }));
  (* rounds: propose at 16, round at 24 -> round latency 8 *)
  ignore (Obs.Log.record log ~time:16.0 ~node:(n 2) ~instance:inst Obs.Event.Propose);
  ignore
    (Obs.Log.record log ~time:24.0 ~node:(n 2) ~instance:inst
       (Obs.Event.Round { round = 1 }));
  (* channel 2->5: send at 20, ARQ retransmit at 45 -> delay 25 *)
  ignore
    (Obs.Log.record log ~time:20.0 ~node:(n 2)
       (Obs.Event.Send { dst = n 5; units = 1 }));
  ignore
    (Obs.Log.record log ~time:45.0 ~node:(n 2)
       (Obs.Event.Retransmit { dst = n 5; attempt = 1; frames = 1 }));
  (* decide at 36 -> decide latency 20 from the instance's first propose *)
  ignore (Obs.Log.record log ~time:36.0 ~node:(n 2) ~instance:inst Obs.Event.Decide);
  let m = Obs.Metrics.of_log log in
  Alcotest.(check int) "events" 8 m.Obs.Metrics.events;
  Alcotest.(check int) "one decide" 1 (Obs.Hist.count m.Obs.Metrics.decide_latency);
  Alcotest.(check (float 1e-9)) "decide latency" 20.0
    (Obs.Hist.mean m.Obs.Metrics.decide_latency);
  Alcotest.(check (float 1e-9)) "round latency" 8.0
    (Obs.Hist.mean m.Obs.Metrics.round_latency);
  Alcotest.(check (float 1e-9)) "retransmit delay" 25.0
    (Obs.Hist.mean m.Obs.Metrics.retransmit_delay);
  Alcotest.(check int) "false suspicion excluded" 1
    (Obs.Hist.count m.Obs.Metrics.fd_lag);
  Alcotest.(check (float 1e-9)) "fd lag" 4.0 (Obs.Hist.mean m.Obs.Metrics.fd_lag)

let test_metrics_end_to_end () =
  let region = Node_set.of_ints [ 3; 4 ] in
  let outcome = run (Topology.ring 10) (crash_all 5.0 region) in
  let m = Obs.Metrics.of_log outcome.Runner.obs in
  Alcotest.(check int) "log and metrics agree" (Obs.Log.length outcome.Runner.obs)
    m.Obs.Metrics.events;
  Alcotest.(check int) "one decide sample per decision"
    (List.length outcome.Runner.decisions)
    (Obs.Hist.count m.Obs.Metrics.decide_latency);
  Alcotest.(check bool) "suspicions measured" true
    (Obs.Hist.count m.Obs.Metrics.fd_lag > 0)

(* ------------------------------------------------------------------ *)
(* Export determinism                                                  *)

let lossy_arq =
  Transport.Arq_over_faulty
    ({ Faults.none with Faults.drop = 0.2 }, Transport.default_policy)

let trace_of_seed seed =
  let graph = Topology.ring 12 in
  let rng = Prng.create (7_000 + seed) in
  let crashes =
    Fault_gen.crash_at 10.0 (Fault_gen.connected_region rng graph ~size:2)
  in
  let options = { Runner.default_options with Runner.seed; channel = lossy_arq } in
  run ~options graph crashes

let test_jsonl_deterministic () =
  (* Same seed, same scenario: the exported trace is byte-identical —
     the property the whole causal layer's reproducibility story rests
     on. *)
  let export seed =
    Obs.Export.jsonl (Obs.Log.to_list (trace_of_seed seed).Runner.obs)
  in
  let a = export 1 in
  Alcotest.(check bool) "trace not empty" true (String.length a > 0);
  Alcotest.(check string) "byte-identical across runs" a (export 1);
  Alcotest.(check bool) "seed actually matters" true (a <> export 2)

let test_chrome_export_shape () =
  let log = (trace_of_seed 1).Runner.obs in
  match Obs.Export.chrome (Obs.Log.to_list log) with
  | Json.Obj fields ->
      Alcotest.(check bool) "displayTimeUnit" true
        (List.mem_assoc "displayTimeUnit" fields);
      (match List.assoc_opt "traceEvents" fields with
      | Some (Json.List events) ->
          Alcotest.(check bool) "not empty" true (events <> [])
      | _ -> Alcotest.fail "traceEvents missing or not a list")
  | _ -> Alcotest.fail "chrome export is not an object"

(* ------------------------------------------------------------------ *)
(* Causality: parents precede children (qcheck)                        *)

let check_parents_precede seed =
  let outcome = trace_of_seed (seed mod 10_000) in
  let log = outcome.Runner.obs in
  Obs.Log.iter log (fun e ->
      match e.Obs.Event.parent with
      | None -> ()
      | Some p ->
          if p >= e.Obs.Event.seq then
            QCheck2.Test.fail_reportf "seed %d: event #%d has parent #%d" seed
              e.Obs.Event.seq p;
          (match Obs.Log.find log p with
          | None ->
              QCheck2.Test.fail_reportf "seed %d: event #%d cites missing #%d"
                seed e.Obs.Event.seq p
          | Some parent ->
              if parent.Obs.Event.time > e.Obs.Event.time then
                QCheck2.Test.fail_reportf
                  "seed %d: parent #%d at t=%f after child #%d at t=%f" seed p
                  parent.Obs.Event.time e.Obs.Event.seq e.Obs.Event.time));
  true

let prop_parents_precede =
  QCheck2.Test.make ~name:"causal parents precede their children" ~count:25
    QCheck2.Gen.(int_range 0 1_000_000)
    check_parents_precede

(* ------------------------------------------------------------------ *)
(* Stats counters are monotone (qcheck)                                *)

let test_stats_rejects_negative_units () =
  let stats = Stats.create () in
  Alcotest.check_raises "negative units"
    (Invalid_argument "Stats.record_send: negative units") (fun () ->
      Stats.record_send stats ~src:(n 0) ~dst:(n 1) ~units:(-1))

let stats_snapshot stats =
  [
    Stats.sent stats;
    Stats.delivered stats;
    Stats.dropped stats;
    Stats.fault_dropped stats;
    Stats.duplicated stats;
    Stats.retransmitted stats;
    Stats.deduped stats;
    Stats.units_sent stats;
  ]

let check_stats_monotone ops =
  let stats = Stats.create () in
  let before = ref (stats_snapshot stats) in
  List.iter
    (fun op ->
      (match op mod 7 with
      | 0 -> Stats.record_send stats ~src:(n (op mod 5)) ~dst:(n 1) ~units:(op mod 3)
      | 1 -> Stats.record_delivery stats
      | 2 -> Stats.record_drop stats
      | 3 -> Stats.record_fault_drop stats
      | 4 -> Stats.record_duplicate stats
      | 5 -> Stats.record_retransmit stats
      | _ -> Stats.record_dedup stats);
      let after = stats_snapshot stats in
      List.iter2
        (fun b a ->
          if a < b then
            QCheck2.Test.fail_reportf "counter went backwards: %d -> %d" b a)
        !before after;
      before := after)
    ops;
  true

let prop_stats_monotone =
  QCheck2.Test.make ~name:"stats counters are monotone" ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) (int_range 0 1_000))
    check_stats_monotone

(* ------------------------------------------------------------------ *)
(* Checker citations resolve in the log                                *)

let test_violations_cite_log_events () =
  (* Raw lossy wire with a raw detector breaks the spec on some seed
     (see test_transport); every citation the checker attaches must
     resolve to a real event of that run's log. *)
  let cited = ref 0 in
  List.iter
    (fun seed ->
      let graph = Topology.ring 16 in
      let rng = Prng.create (4_000 + seed) in
      let crashes =
        Fault_gen.crash_at 10.0 (Fault_gen.connected_region rng graph ~size:3)
      in
      let options =
        {
          Runner.default_options with
          Runner.seed;
          channel = Transport.Raw_faulty { Faults.none with Faults.drop = 0.25 };
          channel_consistent_fd = false;
        }
      in
      let outcome = run ~options graph crashes in
      let report = Checker.check ~value_equal:String.equal outcome in
      List.iter
        (fun v ->
          List.iter
            (fun seq ->
              incr cited;
              match Obs.Log.find outcome.Runner.obs seq with
              | Some e -> Alcotest.(check int) "seq matches" seq e.Obs.Event.seq
              | None -> Alcotest.failf "violation cites missing event #%d" seq)
            v.Checker.events)
        report.Checker.violations)
    (List.init 40 Fun.id);
  Alcotest.(check bool) "some violation cited events" true (!cited > 0)

let suite =
  ( "obs",
    [
      Alcotest.test_case "log records and finds" `Quick test_log_records_and_finds;
      Alcotest.test_case "log rejects bad records" `Quick test_log_rejects_bad_records;
      Alcotest.test_case "context restored" `Quick test_context_restored;
      Alcotest.test_case "log growth forces no minor collection" `Quick
        test_log_growth_no_minor_gc;
      QCheck_alcotest.to_alcotest prop_log_roundtrip;
      Alcotest.test_case "hist bucketing" `Quick test_hist_bucketing;
      Alcotest.test_case "hist open bucket" `Quick test_hist_open_bucket;
      Alcotest.test_case "hist json" `Quick test_hist_json;
      Alcotest.test_case "metrics from handmade log" `Quick
        test_metrics_from_handmade_log;
      Alcotest.test_case "metrics end to end" `Quick test_metrics_end_to_end;
      Alcotest.test_case "jsonl determinism" `Quick test_jsonl_deterministic;
      Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
      QCheck_alcotest.to_alcotest ~long:true prop_parents_precede;
      Alcotest.test_case "stats rejects negative units" `Quick
        test_stats_rejects_negative_units;
      QCheck_alcotest.to_alcotest prop_stats_monotone;
      Alcotest.test_case "violations cite log events" `Quick
        test_violations_cite_log_events;
    ] )
