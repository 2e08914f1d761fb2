(* Randomized whole-system validation: CD1-CD7 must hold on every run,
   across topology families, fault shapes, latency models and seeds.
   This is the executable counterpart of the paper's proof of
   correctness (experiment X7 runs the same matrix at larger scale). *)

open Cliffedge_graph
module Prng = Cliffedge_prng.Prng
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module Fault_gen = Cliffedge_workload.Fault_gen
module Latency = Cliffedge_net.Latency

let topologies rng =
  [
    Topology.ring 24;
    Topology.torus 6 6;
    Topology.grid 5 7;
    Topology.erdos_renyi rng 30 ~p:0.12;
    Topology.watts_strogatz rng 26 ~k:4 ~beta:0.2;
    Topology.barabasi_albert rng 28 ~m:2;
  ]

let latency_models =
  [
    Latency.Constant 1.0;
    Latency.Uniform { min = 0.5; max = 20.0 };
    Latency.Exponential { min = 0.5; mean = 8.0 };
  ]

(* One random run: pick topology, fault shape and latencies from the
   seed, run to quiescence, check everything. *)
let random_run ~early_stopping seed =
  let rng = Prng.create seed in
  let graph = Prng.choose rng (topologies rng) in
  let n = Graph.node_count graph in
  let message_latency = Prng.choose rng latency_models in
  let detection_latency = Prng.choose rng latency_models in
  let crashes =
    match Prng.int rng 4 with
    | 0 ->
        (* one simultaneous region *)
        let size = 1 + Prng.int rng (max 1 (n / 4)) in
        Fault_gen.crash_at 10.0 (Fault_gen.connected_region rng graph ~size)
    | 1 ->
        (* staggered region *)
        let size = 1 + Prng.int rng (max 1 (n / 4)) in
        Fault_gen.staggered rng ~start:10.0 ~spread:60.0
          (Fault_gen.connected_region rng graph ~size)
    | 2 ->
        (* cascade *)
        let seed_region = Fault_gen.connected_region rng graph ~size:2 in
        let depth = 1 + Prng.int rng 4 in
        fst
          (Fault_gen.cascade rng graph ~seed_region ~depth ~start:10.0 ~interval:25.0)
    | _ -> (
        (* several isolated regions when placeable *)
        match Fault_gen.isolated_regions rng graph ~count:2 ~size:2 with
        | Some regions ->
            List.concat_map (fun r -> Fault_gen.crash_at 10.0 r) regions
        | None ->
            Fault_gen.crash_at 10.0 (Fault_gen.connected_region rng graph ~size:2))
  in
  let options =
    {
      Runner.default_options with
      Runner.seed;
      message_latency;
      detection_latency;
      early_stopping;
      channel_consistent_fd = true;
      max_events = 5_000_000;
    }
  in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  (outcome, Checker.check ~value_equal:String.equal outcome)

let check_seed ~early_stopping seed =
  let outcome, report = random_run ~early_stopping seed in
  if not outcome.quiescent then
    QCheck2.Test.fail_reportf "seed %d: run not quiescent" seed;
  if not (Checker.ok report) then
    QCheck2.Test.fail_reportf "seed %d: %s" seed
      (Format.asprintf "%a" Checker.pp_report report);
  true

let prop_spec_holds =
  QCheck2.Test.make ~name:"CD1-CD7 hold on random runs" ~count:120
    QCheck2.Gen.(int_range 0 1_000_000)
    (check_seed ~early_stopping:false)

let prop_spec_holds_early_stopping =
  QCheck2.Test.make ~name:"CD1-CD7 hold with early stopping" ~count:120
    QCheck2.Gen.(int_range 0 1_000_000)
    (check_seed ~early_stopping:true)

let prop_deterministic_replay =
  QCheck2.Test.make ~name:"same seed => identical outcome" ~count:30
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let a, _ = random_run ~early_stopping:false seed in
      let b, _ = random_run ~early_stopping:false seed in
      Cliffedge_net.Stats.sent a.stats = Cliffedge_net.Stats.sent b.stats
      && a.duration = b.duration
      && List.length a.decisions = List.length b.decisions
      && List.for_all2
           (fun (x : string Runner.decision) (y : string Runner.decision) ->
             Node_id.equal x.node y.node
             && Node_set.equal x.view y.view
             && String.equal x.value y.value && x.time = y.time)
           a.decisions b.decisions)

(* The decided views exactly tile a subset of the faulty domains: every
   decided view IS a union-free crashed region contained in one domain.
   (Stronger sanity on top of CD2/CD6.) *)
let prop_views_inside_domains =
  QCheck2.Test.make ~name:"decided views lie within faulty domains" ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let outcome, _ = random_run ~early_stopping:false seed in
      let geometry =
        Fault_geometry.compute outcome.graph ~faulty:outcome.crashed
      in
      List.for_all
        (fun (d : string Runner.decision) ->
          List.exists
            (fun domain -> Node_set.subset d.view domain)
            (Fault_geometry.domains geometry))
        outcome.decisions)

let suite =
  ( "randomized spec validation",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_spec_holds;
      QCheck_alcotest.to_alcotest ~long:true prop_spec_holds_early_stopping;
      QCheck_alcotest.to_alcotest prop_deterministic_replay;
      QCheck_alcotest.to_alcotest prop_views_inside_domains;
    ] )

(* The paper: "The actual ordering relation on node sets does not
   matter."  Exercise three alternative tiebreaks and verify CD1-CD7
   still hold on random runs — provided every node uses the same one. *)
let tiebreaks =
  [
    ("reverse-lex", fun a b -> Node_set.compare b a);
    ( "max-element",
      fun a b ->
        match
          Option.compare Node_id.compare (Node_set.max_elt_opt a)
            (Node_set.max_elt_opt b)
        with
        | 0 -> Node_set.compare a b
        | c -> c );
    ( "hash-then-lex",
      fun a b ->
        let h s = Hashtbl.hash (Node_set.to_ints s) in
        match Int.compare (h a) (h b) with 0 -> Node_set.compare a b | c -> c );
  ]

let prop_any_tiebreak_works =
  QCheck2.Test.make ~name:"CD1-CD7 hold under alternative ranking tiebreaks"
    ~count:90
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let _, tiebreak = Prng.choose rng tiebreaks in
      let graph = Topology.torus 6 6 in
      let size = 1 + Prng.int rng 8 in
      let crashes =
        Fault_gen.staggered rng ~start:10.0 ~spread:50.0
          (Fault_gen.connected_region rng graph ~size)
      in
      let rank = Cliffedge_graph.Ranking.compare_with ~tiebreak graph in
      let outcome =
        Runner.run
          ~options:{ Runner.default_options with seed }
          ~rank ~graph ~crashes ~propose_value:Scenario.default_propose ()
      in
      let report = Checker.check ~value_equal:String.equal outcome in
      if not (Checker.ok report) then
        QCheck2.Test.fail_reportf "seed %d: %s" seed
          (Format.asprintf "%a" Checker.pp_report report);
      outcome.quiescent)

let suite =
  let name, cases = suite in
  (name, cases @ [ QCheck_alcotest.to_alcotest prop_any_tiebreak_works ])
