(* The experiment harness: regenerates every experiment of
   EXPERIMENTS.md (the paper has no quantitative evaluation; X1-X3
   execute its three figures, X4-X8 measure its claims).  Each function
   prints one table. *)

open Cliffedge_graph
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module P = Cliffedge.Paper_scenarios
module Fault_gen = Cliffedge_workload.Fault_gen
module Global_runner = Cliffedge_baseline.Global_runner
module Stats = Cliffedge_net.Stats
module Latency = Cliffedge_net.Latency
module Faults = Cliffedge_net.Faults
module Transport = Cliffedge_net.Transport
module Table = Cliffedge_report.Table
module Summary = Cliffedge_report.Summary
module Prng = Cliffedge_prng.Prng
module Obs = Cliffedge_obs

let cell = Table.cell

let violations report = List.length report.Checker.violations

(* ------------------------------------------------------------------ *)
(* X1: Fig. 1(a) — disjoint regions, independent local agreements      *)

let x1 () =
  let t =
    Table.create ~title:"X1 (Fig. 1a): disjoint regions F1/F2, independent agreements"
      ~columns:
        [
          "seed";
          "decisions";
          "regions agreed";
          "msgs";
          "eu<->pacific msgs";
          "violations";
        ]
  in
  let madrid = P.city "madrid" and vancouver = P.city "vancouver" in
  List.iter
    (fun seed ->
      let outcome, report = Scenario.execute (Scenario.with_seed P.fig1a seed) in
      let cross =
        Stats.pair_count outcome.stats ~src:madrid ~dst:vancouver
        + Stats.pair_count outcome.stats ~src:vancouver ~dst:madrid
      in
      Table.add_row t
        [
          cell "%d" seed;
          cell "%d" (List.length outcome.decisions);
          cell "%d" (List.length (Runner.decided_views outcome));
          cell "%d" (Stats.sent outcome.stats);
          cell "%d" cross;
          cell "%d" (violations report);
        ])
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X2: Fig. 1(b) — the cascade race F1 -> F3                           *)

let x2 () =
  let t =
    Table.create
      ~title:
        "X2 (Fig. 1b): paris crashes at varying times; which view wins the race"
      ~columns:
        [
          "paris crash t";
          "F3 decided";
          "F1 decided";
          "berlin decides";
          "restarts";
          "violations";
        ]
  in
  List.iter
    (fun at ->
      let decided_f3 = ref 0
      and decided_f1 = ref 0
      and berlin = ref 0
      and restarts = ref []
      and bad = ref 0 in
      let seeds = List.init 10 Fun.id in
      List.iter
        (fun seed ->
          let scenario = Scenario.with_seed (P.fig1b ~paris_crash_time:at ()) seed in
          let outcome, report = Scenario.execute scenario in
          let views = Runner.decided_views outcome in
          if List.exists (Node_set.equal P.f3) views then incr decided_f3;
          if List.exists (Node_set.equal P.f1) views then incr decided_f1;
          if Node_set.mem (P.city "berlin") (Runner.deciders outcome) then incr berlin;
          restarts := float_of_int (Runner.restart_count outcome) :: !restarts;
          bad := !bad + violations report)
        seeds;
      Table.add_row t
        [
          cell "%.0f" at;
          cell "%d/10" !decided_f3;
          cell "%d/10" !decided_f1;
          cell "%d/10" !berlin;
          cell "%a" Summary.pp_terse (Summary.of_list !restarts);
          cell "%d" !bad;
        ])
    [ 12.0; 15.0; 20.0; 30.0; 60.0; 500.0 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X3: Fig. 2 — clusters of adjacent faulty domains and weak progress  *)

let x3 () =
  let t =
    Table.create
      ~title:
        "X3 (Fig. 2): chains of adjacent faulty domains (one cluster); CD7 progress"
      ~columns:
        [
          "domains";
          "cluster size ok";
          "runs";
          "mean deciders";
          "mean domains decided";
          "violations";
        ]
  in
  let graph = Topology.torus 10 10 in
  List.iter
    (fun domains ->
      let runs = ref 0
      and deciders = ref []
      and decided_domains = ref []
      and bad = ref 0
      and cluster_ok = ref true in
      List.iter
        (fun seed ->
          let rng = Prng.create (1000 + seed) in
          match Fault_gen.adjacent_chain rng graph ~domains ~size:2 with
          | None -> ()
          | Some regions ->
              let faulty = List.fold_left Node_set.union Node_set.empty regions in
              let geom = Fault_geometry.compute graph ~faulty in
              if List.length (Fault_geometry.clusters geom) <> 1 then
                cluster_ok := false;
              let crashes = Fault_gen.crash_at 10.0 faulty in
              let outcome =
                Runner.run
                  ~options:{ Runner.default_options with seed }
                  ~graph ~crashes ~propose_value:Scenario.default_propose ()
              in
              let report = Checker.check ~value_equal:String.equal outcome in
              incr runs;
              deciders :=
                float_of_int (Node_set.cardinal (Runner.deciders outcome)) :: !deciders;
              decided_domains :=
                float_of_int (List.length (Runner.decided_views outcome))
                :: !decided_domains;
              bad := !bad + violations report)
        (List.init 15 Fun.id);
      if !runs > 0 then
        Table.add_row t
          [
            cell "%d" domains;
            cell "%b" !cluster_ok;
            cell "%d" !runs;
            cell "%a" Summary.pp_terse (Summary.of_list !deciders);
            cell "%a" Summary.pp_terse (Summary.of_list !decided_domains);
            cell "%d" !bad;
          ])
    [ 2; 3; 4; 5 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X4: the locality headline — cost vs system size N                   *)

let ring_region n =
  (* Eight consecutive nodes in the middle of the ring. *)
  Node_set.of_ints (List.init 8 (fun i -> (n / 2) + i))

(* Per-crash maintenance cost of the incremental geometry: a fresh
   tracker absorbs a [crashes]-node cascade marching along the ring
   from id 8.  Returns (µs per crash, resident words after). *)
let geometry_cascade graph ~crashes =
  let incr = Incr_geometry.create graph in
  let (), ms =
    Json_out.time_ms (fun () ->
        for i = 8 to 8 + crashes - 1 do
          Incr_geometry.crash incr (Node_id.of_int i)
        done)
  in
  (ms *. 1000.0 /. float_of_int crashes, Incr_geometry.resident_words incr)

(* Best of five timings of a deterministic run, from a collected heap: a
   single sub-ms sample is at the mercy of whichever major GC slice lands
   in it, and the X4 rows follow flooding runs that leave a ~600 MB heap
   behind.  Without the collection, which phase of that heap's major
   cycle the five runs fell into moved the N=10^6 row between 0.4 and
   3 ms across builds doing the same work. *)
let best_time_ms f =
  Gc.full_major ();
  let result, first = Json_out.time_ms f in
  let best = ref first in
  for _ = 2 to 5 do
    best := Float.min !best (snd (Json_out.time_ms f))
  done;
  (result, !best)

(* One large-N run on an implicit ring: an 8-node region crashed at low
   ids.  The runner activates only the nodes the run contacts — by CD3,
   [region ∪ border(region)] — and the checker verifies that locality
   on the outcome. *)
let implicit_ring_run n =
  let graph = Topology.implicit_ring n in
  let region = Fault_gen.compact_region graph ~seed_node:(Node_id.of_int 8) ~size:8 in
  let crashes = Fault_gen.crash_at 10.0 region in
  best_time_ms (fun () ->
      Runner.run ~graph ~crashes ~propose_value:Scenario.default_propose ())

let x4 () =
  let t =
    Table.create
      ~title:
        "X4 (locality claim): fixed 8-node crashed region, growing ring; cliff-edge \
         vs whole-system flooding baseline; implicit rows add the per-crash cost of \
         incremental geometry over a 512-crash cascade"
      ~columns:
        [
          "N";
          "CE msgs";
          "CE units";
          "CE nodes involved";
          "CE t";
          "CE wall ms";
          "per-crash us";
          "BL msgs";
          "BL units";
          "BL nodes involved";
          "BL t";
          "BL wall ms";
        ]
  in
  List.iter
    (fun n ->
      let graph = Topology.ring n in
      let crashes = Fault_gen.crash_at 10.0 (ring_region n) in
      let ce, ce_ms =
        best_time_ms (fun () ->
            Runner.run ~graph ~crashes ~propose_value:Scenario.default_propose ())
      in
      assert (Checker.ok (Checker.check ce));
      let ce_row =
        [
          cell "%d" (Stats.sent ce.stats);
          cell "%d" (Stats.units_sent ce.stats);
          cell "%d" (Node_set.cardinal (Stats.communicating_nodes ce.stats));
          cell "%.0f" ce.duration;
          cell "%.2f" ce_ms;
          "-";
        ]
      in
      let json_fields =
        ref
          [
            ("ce_wall_ms", Cliffedge_report.Json.Float ce_ms);
            ("ce_msgs", Cliffedge_report.Json.Int (Stats.sent ce.stats));
            ( "ce_nodes",
              Cliffedge_report.Json.Int
                (Node_set.cardinal (Stats.communicating_nodes ce.stats)) );
          ]
      in
      let bl_row =
        if n <= 512 then begin
          let bl, bl_ms = Json_out.time_ms (fun () -> Global_runner.run ~graph ~crashes ()) in
          json_fields :=
            !json_fields
            @ [
                ("bl_wall_ms", Cliffedge_report.Json.Float bl_ms);
                ("bl_msgs", Cliffedge_report.Json.Int (Stats.sent bl.stats));
              ];
          [
            cell "%d" (Stats.sent bl.stats);
            cell "%d" (Stats.units_sent bl.stats);
            cell "%d" (Node_set.cardinal (Stats.communicating_nodes bl.stats));
            cell "%.0f" bl.duration;
            cell "%.1f" bl_ms;
          ]
        end
        else [ "-"; "-"; "-"; "-"; "-" ]
      in
      Json_out.record ~section:"x4"
        [ (Printf.sprintf "N=%d" n, Cliffedge_report.Json.Obj !json_fields) ];
      Table.add_row t ((cell "%d" n :: ce_row) @ bl_row))
    [ 64; 128; 256; 512; 1024; 2048 ];
  (* Implicit rows: same 8-node region, topologies that are never
     materialized.  The flooding baseline is structurally O(N · Δ) and
     already dominated at 512; these rows instead report the per-crash
     cost of the incremental geometry, whose flatness across two orders
     of magnitude of N is the CD3 scaling claim. *)
  List.iter
    (fun n ->
      let ce, ce_ms = implicit_ring_run n in
      assert (Checker.ok (Checker.check ce));
      let per_crash_us, resident = geometry_cascade (Topology.implicit_ring n) ~crashes:512 in
      Json_out.record ~section:"x4"
        [
          ( Printf.sprintf "N=%d-implicit" n,
            Cliffedge_report.Json.Obj
              [
                ("ce_wall_ms", Cliffedge_report.Json.Float ce_ms);
                ("ce_msgs", Cliffedge_report.Json.Int (Stats.sent ce.stats));
                ( "ce_nodes",
                  Cliffedge_report.Json.Int
                    (Node_set.cardinal (Stats.communicating_nodes ce.stats)) );
                ("per_crash_us", Cliffedge_report.Json.Float per_crash_us);
                ("geom_resident_words", Cliffedge_report.Json.Int resident);
              ] );
        ];
      Table.add_row t
        [
          cell "%d" n;
          cell "%d" (Stats.sent ce.stats);
          cell "%d" (Stats.units_sent ce.stats);
          cell "%d" (Node_set.cardinal (Stats.communicating_nodes ce.stats));
          cell "%.0f" ce.duration;
          cell "%.2f" ce_ms;
          cell "%.2f" per_crash_us;
          "-";
          "-";
          "-";
          "-";
          "-";
        ])
    [ 10_000; 100_000; 1_000_000 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X5: cost vs crashed-region size at fixed N                          *)

let x5 () =
  let t =
    Table.create
      ~title:"X5: cost vs region size k on a 16x16 torus (N = 256 fixed)"
      ~columns:
        [ "k"; "border"; "rounds"; "msgs"; "units"; "restarts"; "virtual t"; "violations" ]
  in
  let graph = Topology.torus 16 16 in
  List.iter
    (fun k ->
      let rng = Prng.create (31 * k) in
      let region =
        Fault_gen.connected_region_from rng graph ~seed_node:(Node_id.of_int 120) ~size:k
      in
      let crashes = Fault_gen.crash_at 10.0 region in
      let outcome =
        Runner.run ~graph ~crashes ~propose_value:Scenario.default_propose ()
      in
      let report = Checker.check ~value_equal:String.equal outcome in
      Table.add_row t
        [
          cell "%d" k;
          cell "%d" (Node_set.cardinal (Graph.border graph region));
          cell "%d" (Runner.max_round outcome);
          cell "%d" (Stats.sent outcome.stats);
          cell "%d" (Stats.units_sent outcome.stats);
          cell "%d" (Runner.restart_count outcome);
          cell "%.0f" outcome.duration;
          cell "%d" (violations report);
        ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X6: ongoing failures — cascade depth vs restarts and convergence    *)

let x6 () =
  let t =
    Table.create
      ~title:
        "X6 (Fig. 1b generalized): cascades of depth c on a 64-ring; re-proposals \
         and convergence"
      ~columns:
        [
          "depth";
          "mean restarts";
          "mean decisions";
          "mean msgs";
          "mean convergence t";
          "violations";
        ]
  in
  let graph = Topology.ring 64 in
  List.iter
    (fun depth ->
      let restarts = ref []
      and decisions = ref []
      and msgs = ref []
      and durations = ref []
      and bad = ref 0 in
      List.iter
        (fun seed ->
          let rng = Prng.create (seed + (depth * 1000)) in
          let seed_region =
            Fault_gen.connected_region_from rng graph ~seed_node:(Node_id.of_int 30)
              ~size:2
          in
          let crashes, _ =
            Fault_gen.cascade rng graph ~seed_region ~depth ~start:10.0 ~interval:30.0
          in
          let outcome =
            Runner.run
              ~options:{ Runner.default_options with seed }
              ~graph ~crashes ~propose_value:Scenario.default_propose ()
          in
          let report = Checker.check ~value_equal:String.equal outcome in
          restarts := float_of_int (Runner.restart_count outcome) :: !restarts;
          decisions := float_of_int (List.length outcome.decisions) :: !decisions;
          msgs := float_of_int (Stats.sent outcome.stats) :: !msgs;
          durations := outcome.duration :: !durations;
          bad := !bad + violations report)
        (List.init 10 Fun.id);
      Table.add_row t
        [
          cell "%d" depth;
          cell "%a" Summary.pp_terse (Summary.of_list !restarts);
          cell "%a" Summary.pp_terse (Summary.of_list !decisions);
          cell "%a" Summary.pp_terse (Summary.of_list !msgs);
          cell "%a" Summary.pp_terse (Summary.of_list !durations);
          cell "%d" !bad;
        ])
    [ 0; 1; 2; 3; 4; 6 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X7: the validation matrix — CD1-CD7 across the board                *)

let x7 () =
  let t =
    Table.create
      ~title:"X7: randomized validation matrix (seeds x fault shapes per topology)"
      ~columns:[ "topology"; "runs"; "decisions"; "restarts"; "violations" ]
  in
  let shapes = [ `Simultaneous; `Staggered; `Cascade; `Isolated ] in
  let topo_specs =
    [
      ("ring:48", Topology.Ring 48);
      ("torus:7x7", Topology.Torus (7, 7));
      ("grid:6x8", Topology.Grid (6, 8));
      ("er:40:0.1", Topology.Erdos_renyi (40, 0.1));
      ("ws:40:4:0.2", Topology.Watts_strogatz (40, 4, 0.2));
      ("ba:40:2", Topology.Barabasi_albert (40, 2));
    ]
  in
  let total_bad = ref 0 in
  List.iter
    (fun (label, spec) ->
      let runs = ref 0 and decisions = ref 0 and restarts = ref 0 and bad = ref 0 in
      List.iter
        (fun seed ->
          List.iteri
            (fun si shape ->
              let rng = Prng.create ((seed * 17) + si) in
              let graph = Topology.build rng spec in
              let n = Graph.node_count graph in
              let crashes =
                match shape with
                | `Simultaneous ->
                    let size = 1 + Prng.int rng (n / 5) in
                    Fault_gen.crash_at 10.0
                      (Fault_gen.connected_region rng graph ~size)
                | `Staggered ->
                    let size = 1 + Prng.int rng (n / 5) in
                    Fault_gen.staggered rng ~start:10.0 ~spread:80.0
                      (Fault_gen.connected_region rng graph ~size)
                | `Cascade ->
                    let seed_region = Fault_gen.connected_region rng graph ~size:2 in
                    fst
                      (Fault_gen.cascade rng graph ~seed_region
                         ~depth:(1 + Prng.int rng 4)
                         ~start:10.0 ~interval:25.0)
                | `Isolated -> (
                    match Fault_gen.isolated_regions rng graph ~count:2 ~size:2 with
                    | Some rs -> List.concat_map (Fault_gen.crash_at 10.0) rs
                    | None ->
                        Fault_gen.crash_at 10.0
                          (Fault_gen.connected_region rng graph ~size:2))
              in
              let outcome =
                Runner.run
                  ~options:{ Runner.default_options with seed }
                  ~graph ~crashes ~propose_value:Scenario.default_propose ()
              in
              let report = Checker.check ~value_equal:String.equal outcome in
              incr runs;
              decisions := !decisions + List.length outcome.decisions;
              restarts := !restarts + Runner.restart_count outcome;
              bad := !bad + violations report)
            shapes)
        (List.init 25 Fun.id);
      total_bad := !total_bad + !bad;
      Table.add_row t
        [
          label;
          cell "%d" !runs;
          cell "%d" !decisions;
          cell "%d" !restarts;
          cell "%d" !bad;
        ])
    topo_specs;
  Table.print t;
  (* The matrix claims zero violations (EXPERIMENTS.md X7): any non-zero
     cell fails the command, so running it is a gate. *)
  if !total_bad > 0 then begin
    Printf.eprintf "bench: x7: %d CD1-CD7 violation(s) in the matrix\n" !total_bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* X8: footnote-6 ablation — early termination on/off                  *)

let x8 () =
  let t =
    Table.create
      ~title:
        "X8 (footnote 6): early termination ablation; star-center regions give \
         border |B| and |B|-1 base rounds"
      ~columns:
        [ "border |B|"; "mode"; "rounds"; "msgs"; "units"; "virtual t"; "violations" ]
  in
  List.iter
    (fun b ->
      (* A star with b leaves: crash the hub; the border is the b leaves. *)
      let graph = Topology.star (b + 1) in
      let crashes = [ (10.0, Node_id.of_int 0) ] in
      List.iter
        (fun early ->
          let options = { Runner.default_options with early_stopping = early } in
          let outcome =
            Runner.run ~options ~graph ~crashes
              ~propose_value:Scenario.default_propose ()
          in
          let report = Checker.check ~value_equal:String.equal outcome in
          Table.add_row t
            [
              cell "%d" b;
              (if early then "early" else "base");
              cell "%d" (Runner.max_round outcome);
              cell "%d" (Stats.sent outcome.stats);
              cell "%d" (Stats.units_sent outcome.stats);
              cell "%.0f" outcome.duration;
              cell "%d" (violations report);
            ])
        [ false; true ])
    [ 3; 4; 6; 8; 12; 16 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X9: the uniformity anomaly — raw vs channel-consistent failure      *)
(* detector (DESIGN.md §7)                                             *)

let x9 () =
  let t =
    Table.create
      ~title:
        "X9 (finding): CD5 uniformity under raw vs channel-consistent perfect FD \
         (cascades on a 64-ring, adversarial latencies, 60 seeds per row)"
      ~columns:
        [
          "fd semantics";
          "runs";
          "runs w/ violations";
          "CD5 violations";
          "other violations";
        ]
  in
  let graph = Topology.ring 64 in
  let run_family ~channel_consistent_fd =
    let runs = ref 0 and bad_runs = ref 0 and cd5 = ref 0 and other = ref 0 in
    List.iter
      (fun seed ->
        let rng = Prng.create (77 + seed) in
        let seed_region =
          Fault_gen.connected_region_from rng graph ~seed_node:(Node_id.of_int 30)
            ~size:2
        in
        let crashes, _ =
          Fault_gen.cascade rng graph ~seed_region ~depth:3 ~start:10.0 ~interval:25.0
        in
        let options =
          {
            Runner.default_options with
            seed;
            channel_consistent_fd;
            (* Long-tailed message latency + fast detection maximizes the
               window in which a notification overtakes an accept. *)
            message_latency = Latency.Exponential { min = 0.5; mean = 10.0 };
            detection_latency = Latency.Constant 1.0;
          }
        in
        let outcome =
          Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
        in
        let report = Checker.check ~value_equal:String.equal outcome in
        incr runs;
        if not (Checker.ok report) then incr bad_runs;
        List.iter
          (fun v ->
            match v.Checker.property with
            | Checker.CD5_uniform_border_agreement -> incr cd5
            | _ -> incr other)
          report.Checker.violations)
      (List.init 60 Fun.id);
    [ cell "%d" !runs; cell "%d" !bad_runs; cell "%d" !cd5; cell "%d" !other ]
  in
  Table.add_row t ("raw (paper model)" :: run_family ~channel_consistent_fd:false);
  Table.add_row t
    ("channel-consistent (our default)" :: run_family ~channel_consistent_fd:true);
  Table.print t

(* ------------------------------------------------------------------ *)
(* X10: exhaustive small-scope model checking                          *)

let x10 () =
  let t =
    Table.create
      ~title:
        "X10: exhaustive model checking (every schedule) of small configurations, \
         per FD semantics"
      ~columns:
        [ "configuration"; "fd"; "states"; "leaves"; "violations"; "verdict" ]
  in
  let module E = Cliffedge_mcheck.Explorer in
  let n = Node_id.of_int in
  let configs =
    [
      ("path5, region {2}", Topology.path 5, [ n 2 ]);
      ("path5, region {2,3}", Topology.path 5, [ n 2; n 3 ]);
      ("star4, hub crash (|B|=3)", Topology.star 4, [ n 0 ]);
      ("ring5, domains {1},{3}", Topology.ring 5, [ n 1; n 3 ]);
      ("path5, cascade {2,3}+1", Topology.path 5, [ n 2; n 3; n 1 ]);
      ("ring6, cascade {2,3}+4", Topology.ring 6, [ n 2; n 3; n 4 ]);
    ]
  in
  List.iter
    (fun (label, graph, crashes) ->
      List.iter
        (fun (fd_label, fd) ->
          let stats = E.explore ~fd ~max_states:3_000_000 ~graph ~crashes () in
          let verdict =
            if E.ok stats then "all schedules safe"
            else if stats.truncated then "TRUNCATED"
            else
              let sample = List.hd stats.violations in
              Cliffedge.Checker.property_name sample.E.property ^ " violated"
          in
          Table.add_row t
            [
              label;
              fd_label;
              cell "%d" stats.states_explored;
              cell "%d" stats.leaves;
              cell "%d" (List.length stats.violations);
              verdict;
            ])
        [ ("consistent", `Channel_consistent); ("raw", `Raw) ])
    configs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* X11: decide-once vs group-membership churn (paper §4)               *)

let x11 () =
  let t =
    Table.create
      ~title:
        "X11 (paper §4): cliff-edge (one decision per border node) vs group \
         membership (eventually-convergent installed views), 64-ring, cascades \
         of depth c, mean of 10 seeds"
      ~columns:
        [
          "depth";
          "CE decisions";
          "CE msgs";
          "CE nodes involved";
          "GM view installs";
          "GM msgs";
          "GM nodes involved";
        ]
  in
  let graph = Topology.ring 64 in
  List.iter
    (fun depth ->
      let ce_decisions = ref []
      and ce_msgs = ref []
      and ce_nodes = ref []
      and gm_installs = ref []
      and gm_msgs = ref []
      and gm_nodes = ref [] in
      List.iter
        (fun seed ->
          let rng = Prng.create (seed + (depth * 333)) in
          let seed_region =
            Fault_gen.connected_region_from rng graph ~seed_node:(Node_id.of_int 30)
              ~size:2
          in
          let crashes, _ =
            Fault_gen.cascade rng graph ~seed_region ~depth ~start:10.0 ~interval:30.0
          in
          let ce =
            Runner.run
              ~options:{ Runner.default_options with seed }
              ~graph ~crashes ~propose_value:Scenario.default_propose ()
          in
          assert (Checker.ok (Checker.check ce));
          ce_decisions := float_of_int (List.length ce.decisions) :: !ce_decisions;
          ce_msgs := float_of_int (Stats.sent ce.stats) :: !ce_msgs;
          ce_nodes :=
            float_of_int (Node_set.cardinal (Stats.communicating_nodes ce.stats))
            :: !ce_nodes;
          let gm =
            Cliffedge_baseline.Membership_runner.run
              ~options:{ Cliffedge_baseline.Global_runner.default_options with seed }
              ~graph ~crashes ()
          in
          assert (Cliffedge_baseline.Membership_runner.converged gm);
          gm_installs :=
            float_of_int (Cliffedge_baseline.Membership_runner.total_installs gm)
            :: !gm_installs;
          gm_msgs := float_of_int (Stats.sent gm.stats) :: !gm_msgs;
          gm_nodes :=
            float_of_int (Node_set.cardinal (Stats.communicating_nodes gm.stats))
            :: !gm_nodes)
        (List.init 10 Fun.id);
      let mean r = cell "%a" Summary.pp_terse (Summary.of_list !r) in
      Table.add_row t
        [
          cell "%d" depth;
          mean ce_decisions;
          mean ce_msgs;
          mean ce_nodes;
          mean gm_installs;
          mean gm_msgs;
          mean gm_nodes;
        ])
    [ 0; 1; 2; 4 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X12: repair-strategy ablation (the motivating application)          *)

(* The most plan edges incident to one node: every spanning tree on a
   border of |B| nodes has |B| - 1 edges, so the strategies differ in
   shape, not count.  A chain puts at most two edges at a node, a star
   all |B| - 1 at its hub. *)
let most_edges_at_a_node plans =
  let degree = Node_id.Tbl.create 16 in
  let bump p =
    Node_id.Tbl.replace degree p
      (1 + Option.value ~default:0 (Node_id.Tbl.find_opt degree p))
  in
  List.iter
    (fun (_, (plan : Cliffedge_repair.Plan.t)) ->
      List.iter
        (fun (a, b) ->
          bump a;
          bump b)
        plan.edges)
    plans;
  Node_id.Tbl.fold (fun _ d acc -> Int.max d acc) degree 0

let x12 () =
  let t =
    Table.create
      ~title:
        "X12: overlay repair strategies on random fault patterns (ring:64 and \
         torus:8x8, 20 seeds each)"
      ~columns:
        [
          "topology";
          "strategy";
          "runs";
          "healed";
          "mean plan edges";
          "most edges at one node";
          "violations";
        ]
  in
  let module Repair = Cliffedge_repair.Session in
  let module Plan = Cliffedge_repair.Plan in
  let module Planner = Cliffedge_repair.Planner in
  List.iter
    (fun (label, graph) ->
      List.iter
        (fun strategy ->
          let runs = ref 0 and healed = ref 0 and edges = ref [] and bad = ref 0 in
          let most = ref 0 in
          List.iter
            (fun seed ->
              let rng = Prng.create (911 + seed) in
              let size = 2 + Prng.int rng 4 in
              let region = Fault_gen.connected_region rng graph ~size in
              let crashes = Fault_gen.crash_at 10.0 region in
              let outcome =
                Repair.repair
                  ~options:{ Runner.default_options with seed }
                  ~strategy ~graph ~crashes ()
              in
              incr runs;
              if outcome.healed then incr healed;
              edges :=
                float_of_int
                  (List.fold_left
                     (fun acc (_, p) -> acc + Plan.edge_count p)
                     0 outcome.plans)
                :: !edges;
              most := Int.max !most (most_edges_at_a_node outcome.plans);
              if not (Checker.ok outcome.report) then incr bad)
            (List.init 20 Fun.id);
          Table.add_row t
            [
              label;
              cell "%a" Planner.pp_strategy strategy;
              cell "%d" !runs;
              cell "%d" !healed;
              cell "%a" Summary.pp_terse (Summary.of_list !edges);
              cell "%d" !most;
              cell "%d" !bad;
            ])
        [ Planner.Chain_border; Planner.Star_rewire ])
    [ ("ring:64", Topology.ring 64); ("torus:8x8", Topology.torus 8 8) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X13: assumption necessity — breaking strong accuracy                *)

let x13 () =
  let t =
    Table.create
      ~title:
        "X13 (assumption ablation): injecting k false suspicions into the perfect \
         detector (ring:32, one real 2-node region, 30 seeds per row)"
      ~columns:
        [
          "false suspicions";
          "runs";
          "clean runs";
          "CD2 violations";
          "CD3 violations";
          "other";
        ]
  in
  let graph = Topology.ring 32 in
  let nodes = Node_set.elements (Graph.nodes graph) in
  List.iter
    (fun k ->
      let runs = ref 0 and clean = ref 0 and cd2 = ref 0 and cd3 = ref 0 and other = ref 0 in
      List.iter
        (fun seed ->
          let rng = Prng.create (13_000 + seed) in
          let region = Node_set.of_ints [ 10; 11 ] in
          let crashes = Fault_gen.crash_at 10.0 region in
          let correct =
            List.filter (fun p -> not (Node_set.mem p region)) nodes
          in
          let false_suspicions =
            List.init k (fun _ ->
                (* A correct node wrongly suspects a correct neighbour. *)
                let observer = Prng.choose rng correct in
                let neighbours =
                  Node_set.elements
                    (Node_set.diff (Graph.neighbours graph observer) region)
                in
                let target =
                  match neighbours with
                  | [] -> observer (* degenerate; detector ignores self *)
                  | _ -> Prng.choose rng neighbours
                in
                (5.0 +. Prng.float rng 80.0, observer, target))
          in
          let options = { Runner.default_options with seed; false_suspicions } in
          let outcome =
            Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose
              ()
          in
          let report = Checker.check ~value_equal:String.equal outcome in
          incr runs;
          if Checker.ok report then incr clean;
          List.iter
            (fun v ->
              match v.Checker.property with
              | Checker.CD2_view_accuracy -> incr cd2
              | Checker.CD3_locality -> incr cd3
              | _ -> incr other)
            report.Checker.violations)
        (List.init 30 Fun.id);
      Table.add_row t
        [
          cell "%d" k;
          cell "%d" !runs;
          cell "%d" !clean;
          cell "%d" !cd2;
          cell "%d" !cd3;
          cell "%d" !other;
        ])
    [ 0; 1; 2; 4; 8 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X14: lifecycle churn — waves of faults over a self-healing overlay  *)

let x14 () =
  let t =
    Table.create
      ~title:
        "X14 (lifecycle): repeated size-3 fault waves over a self-healing overlay \
         (fresh protocol instances each epoch)"
      ~columns:
        [
          "topology";
          "epochs run";
          "all epochs ok";
          "nodes start";
          "nodes end";
          "still connected";
          "plans applied";
        ]
  in
  let module Churn = Cliffedge_repair.Churn in
  List.iter
    (fun (label, graph) ->
      let rng = Prng.create 2024 in
      let outcome =
        Churn.run ~graph ~next_wave:(Churn.random_wave rng ~size:3) ~epochs:20 ()
      in
      let plans =
        List.fold_left
          (fun acc (e : Churn.epoch) ->
            acc + List.length e.session.Cliffedge_repair.Session.plans)
          0 outcome.epochs
      in
      Table.add_row t
        [
          label;
          cell "%d" (List.length outcome.epochs);
          cell "%b" outcome.all_ok;
          cell "%d" (Graph.node_count graph);
          cell "%d" (Graph.node_count outcome.final_overlay);
          cell "%b" (Graph.is_connected outcome.final_overlay);
          cell "%d" plans;
        ])
    [
      ("ring:64", Topology.ring 64);
      ("torus:10x10", Topology.torus 10 10);
      ("ws:80:4:0.2", Topology.watts_strogatz (Prng.create 8) 80 ~k:4 ~beta:0.2);
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X15: detection-latency sensitivity — the model knob the paper       *)
(* leaves free                                                         *)

let x15 () =
  let t =
    Table.create
      ~title:
        "X15: reaction time vs failure-detection latency (16x16 torus, 6-node \
         region, 15 seeds per row; detection ~ uniform[1, D])"
      ~columns:
        [
          "D (max detect lat)";
          "mean decision latency";
          "p90";
          "mean restarts";
          "mean msgs";
          "violations";
        ]
  in
  let graph = Topology.torus 16 16 in
  List.iter
    (fun d ->
      let latencies = ref [] and restarts = ref [] and msgs = ref [] and bad = ref 0 in
      List.iter
        (fun seed ->
          let rng = Prng.create (15_000 + seed) in
          let region =
            Fault_gen.connected_region_from rng graph ~seed_node:(Node_id.of_int 120)
              ~size:6
          in
          let crashes = Fault_gen.crash_at 10.0 region in
          let options =
            {
              Runner.default_options with
              seed;
              detection_latency = Latency.Uniform { min = 1.0; max = d };
            }
          in
          let outcome =
            Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose
              ()
          in
          let report = Checker.check ~value_equal:String.equal outcome in
          bad := !bad + violations report;
          List.iter
            (fun (_, latency) -> latencies := latency :: !latencies)
            (Cliffedge.Timeline.decision_latency outcome);
          restarts := float_of_int (Runner.restart_count outcome) :: !restarts;
          msgs := float_of_int (Stats.sent outcome.stats) :: !msgs)
        (List.init 15 Fun.id);
      let summary = Summary.of_list !latencies in
      Table.add_row t
        [
          cell "%.0f" d;
          cell "%.1f" summary.Summary.mean;
          cell "%.1f" summary.Summary.p90;
          cell "%a" Summary.pp_terse (Summary.of_list !restarts);
          cell "%a" Summary.pp_terse (Summary.of_list !msgs);
          cell "%d" !bad;
        ])
    [ 2.0; 10.0; 20.0; 50.0; 100.0 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* X16: what the reliable-channel assumption costs — ARQ over lossy    *)
(* wires, drop rate x backoff policy, against the reliable baseline    *)

let x16_policies =
  [
    ( "fast",
      { Transport.rto = 10.0; backoff = 1.5; rto_cap = 50.0; max_retries = 40 } );
    ("default", Transport.default_policy);
    ( "slow",
      { Transport.rto = 50.0; backoff = 3.0; rto_cap = 400.0; max_retries = 20 } );
  ]

(* One ring:32 / 3-node-region scenario per seed; the workload is fixed
   across channel configurations so only the channel varies. *)
let x16_outcome ~channel seed =
  let rng = Prng.create (16_000 + seed) in
  let graph = Topology.ring 32 in
  let region = Fault_gen.connected_region rng graph ~size:3 in
  let crashes = Fault_gen.crash_at 10.0 region in
  let options = { Runner.default_options with seed; channel } in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  (outcome, Checker.check ~value_equal:String.equal outcome)

type x16_row = {
  mean_latency : float;
  mean_msgs : float;
  retransmits : int;
  dedups : int;
  stalled : int;
  bad : int;
}

let x16_collect ~channel seeds =
  let latencies = ref [] and msgs = ref [] in
  let retransmits = ref 0 and dedups = ref 0 and stalled = ref 0 and bad = ref 0 in
  List.iter
    (fun seed ->
      let outcome, report = x16_outcome ~channel seed in
      List.iter
        (fun (_, latency) -> latencies := latency :: !latencies)
        (Cliffedge.Timeline.decision_latency outcome);
      msgs := float_of_int (Stats.sent outcome.stats) :: !msgs;
      retransmits := !retransmits + Stats.retransmitted outcome.stats;
      dedups := !dedups + Stats.deduped outcome.stats;
      stalled := !stalled + List.length outcome.stalled_channels;
      bad := !bad + violations report)
    seeds;
  {
    mean_latency = (Summary.of_list !latencies).Summary.mean;
    mean_msgs = (Summary.of_list !msgs).Summary.mean;
    retransmits = !retransmits;
    dedups = !dedups;
    stalled = !stalled;
    bad = !bad;
  }

let x16 ?(seeds = 10) ?(drop_rates = [ 0.0; 0.05; 0.1; 0.2; 0.3 ])
    ?(policies = x16_policies) () =
  let t =
    Table.create
      ~title:
        "X16: decision latency and message overhead of the ARQ transport vs drop \
         rate and backoff policy (ring:32, 3-node region, reliable baseline = \
         ratio 1)"
      ~columns:
        [
          "drop";
          "policy";
          "mean dec latency";
          "latency ratio";
          "mean msgs";
          "msg ratio";
          "retx";
          "dedup";
          "stalls";
          "violations";
        ]
  in
  let seed_list = List.init seeds Fun.id in
  let base = x16_collect ~channel:Transport.Reliable seed_list in
  let json = Cliffedge_report.Json.(fun f -> Float f) in
  Json_out.record ~section:"x16"
    [
      ( "baseline",
        Cliffedge_report.Json.Obj
          [ ("mean_latency", json base.mean_latency); ("mean_msgs", json base.mean_msgs) ]
      );
    ];
  Table.add_row t
    [
      "-";
      "reliable";
      cell "%.1f" base.mean_latency;
      "1.00";
      cell "%.1f" base.mean_msgs;
      "1.00";
      "0";
      "0";
      "0";
      cell "%d" base.bad;
    ];
  List.iter
    (fun drop ->
      List.iter
        (fun (label, policy) ->
          let plan = { Faults.none with drop } in
          let row =
            x16_collect ~channel:(Transport.Arq_over_faulty (plan, policy)) seed_list
          in
          let latency_ratio = row.mean_latency /. base.mean_latency in
          let msg_ratio = row.mean_msgs /. base.mean_msgs in
          Json_out.record ~section:"x16"
            [
              ( Printf.sprintf "drop=%g,policy=%s" drop label,
                Cliffedge_report.Json.Obj
                  [
                    ("mean_latency", json row.mean_latency);
                    ("latency_ratio", json latency_ratio);
                    ("mean_msgs", json row.mean_msgs);
                    ("msg_ratio", json msg_ratio);
                    ("retransmits", Cliffedge_report.Json.Int row.retransmits);
                    ("dedups", Cliffedge_report.Json.Int row.dedups);
                    ("stalled", Cliffedge_report.Json.Int row.stalled);
                    ("violations", Cliffedge_report.Json.Int row.bad);
                  ] );
            ];
          Table.add_row t
            [
              cell "%.2f" drop;
              label;
              cell "%.1f" row.mean_latency;
              cell "%.2f" latency_ratio;
              cell "%.1f" row.mean_msgs;
              cell "%.2f" msg_ratio;
              cell "%d" row.retransmits;
              cell "%d" row.dedups;
              cell "%d" row.stalled;
              cell "%d" row.bad;
            ])
        policies)
    drop_rates;
  Table.print t

(* Tiny cut of X16 for the @bench-smoke gate: exercises the ARQ channel
   end-to-end and emits the same "x16" JSON section shape. *)
let x16_smoke () =
  x16 ~seeds:2 ~drop_rates:[ 0.0; 0.2 ]
    ~policies:[ ("default", Transport.default_policy) ]
    ()

(* Causal-trace metrics smoke: one lossy-ARQ cut of the X16 scenario,
   reduced to the lib/obs latency histograms and merged into the
   --json output as the "trace" section.  Keeps BENCH_PR*.json
   carrying observability data next to micro/x16, and gives the
   @bench-smoke gate a real metrics object to validate. *)
let trace_smoke () =
  let channel =
    Transport.Arq_over_faulty
      ({ Faults.none with drop = 0.2 }, Transport.default_policy)
  in
  let outcome, report = x16_outcome ~channel 0 in
  let metrics = Obs.Metrics.of_log outcome.Runner.obs in
  Format.printf
    "@.trace metrics (X16 scenario, drop 0.2, default ARQ, %d violation(s)):@.%a@."
    (violations report) Obs.Metrics.pp metrics;
  Json_out.record ~section:"trace"
    [ ("x16_drop20_arq", Obs.Metrics.to_json metrics) ]

(* Words allocated so far: minor plus major minus promoted, so that an
   array allocated straight in the major heap counts too, which
   [Gc.minor_words] alone does not see.  The minor part is
   [Gc.minor_words], exact at any point: on OCaml 5.1 the first field of
   [Gc.counters] reads only an eighth of what the minor heap has taken
   since the last minor collection. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words allocated by one checked agreement (Runner.run then
   Checker.check) on an 8-node compact region seeded at node [seed] of
   a fresh [graph ()], the graph and the region built inside the
   measured span: a stored graph pays for its first geometric query
   there, and every placement starts from empty memos. *)
let region_run_words graph seed =
  let before = allocated_words () in
  let graph = graph () in
  let region = Fault_gen.compact_region graph ~seed_node:(Node_id.of_int seed) ~size:8 in
  let crashes = Fault_gen.crash_at 10.0 region in
  let outcome = Runner.run ~graph ~crashes ~propose_value:Scenario.default_propose () in
  assert (Checker.ok (Checker.check ~value_equal:String.equal outcome));
  allocated_words () -. before

(* A stored ring of 64 nodes whose ids run from [base]. *)
let stored_ring64 base =
  Graph.of_edges (List.init 64 (fun i -> (base + i, base + ((i + 1) mod 64))))

(* CPU microseconds per transition of [runs] explorations. *)
let explore_us_per_transition ?max_states ~runs graph crashes =
  let transitions = ref 0 in
  let (), ms =
    Json_out.time_ms (fun () ->
        for _ = 1 to runs do
          let stats = Cliffedge_mcheck.Explorer.explore ?max_states ~graph ~crashes () in
          transitions := stats.transitions
        done)
  in
  ms *. 1000.0 /. float_of_int (runs * !transitions)

(* The explorer's cost per transition on star:6 (hub crash, to 50 000
   states) and on X10's ring6 cascade {2,3}+4, each the best of five
   timings taken in alternation, so that a slow phase of the host
   lands on both. *)
let explorer_cost_per_move () =
  let id = Node_id.of_int in
  let star6 = Topology.star 6 and ring6 = Topology.ring 6 in
  Gc.full_major ();
  let best_star6 = ref infinity and best_ring6 = ref infinity in
  for _ = 1 to 5 do
    best_star6 :=
      Float.min !best_star6
        (explore_us_per_transition ~max_states:50_000 ~runs:1 star6 [ id 0 ]);
    best_ring6 :=
      Float.min !best_ring6 (explore_us_per_transition ~runs:50 ring6 [ id 2; id 3; id 4 ])
  done;
  (!best_star6, !best_ring6)

(* Large-N smoke for the @bench-smoke gate: one cliff-edge run
   on a never-materialized 100k-node ring, then a 512-crash cascade
   through the incremental geometry with hard ceilings on per-crash
   wall time and tracker residency.  The ceilings are deliberately
   generous (CI machines vary): they catch only an O(N)-per-crash or
   O(N)-resident regression outright, and [compare] does not read the
   largen section the numbers are recorded in.  Last, the same
   agreement at the bottom and at the top of a million-node id range,
   and just below 2^40 on a 2^40-node ring, must allocate within 2x of
   the bottom one, and so must one on a stored 64-ring whose ids start
   just below 2^40 against one whose ids start at 100: a run's cost
   follows its region, not the magnitude of the region's ids, whether
   the graph is generated or stored.  And the explorer's cost per move
   must not grow with the world: a transition on star:6 to 50 000
   states may cost at most 1.5x one on X10's ring6 cascade, both timed
   in this process so that the host's speed cancels out (1.9-2.4x
   while [world_fp] folded the whole world at every state). *)
let largen_smoke () =
  let n = 100_000 in
  let ce, ce_ms = implicit_ring_run n in
  let report = Checker.check ~value_equal:String.equal ce in
  assert (Checker.ok report);
  let per_crash_us, resident = geometry_cascade (Topology.implicit_ring n) ~crashes:512 in
  Format.printf
    "@.large-N smoke (implicit ring, N=%d): run %.1f ms, %d msgs, %d node(s) \
     involved; 512-crash cascade %.2f us/crash, %d resident words@."
    n ce_ms (Stats.sent ce.stats)
    (Node_set.cardinal (Stats.communicating_nodes ce.stats))
    per_crash_us resident;
  assert (per_crash_us <= 500.0);
  assert (resident <= 65_536);
  let ring n () = Topology.implicit_ring n and top = 1 lsl 40 in
  let low = region_run_words (ring 1_000_000) 100
  and high = region_run_words (ring 1_000_000) 999_900 in
  let huge = region_run_words (ring top) (top - 100) in
  Format.printf
    "id magnitude (implicit ring, N=10^6, 8-node region): %.0f words at id 100, \
     %.0f at id 999900 (%.2fx); N=2^40: %.0f at id 2^40-100 (%.2fx)@."
    low high (high /. low) huge (huge /. low);
  assert (high <= 2.0 *. low);
  assert (huge <= 2.0 *. low);
  let stored_low = region_run_words (fun () -> stored_ring64 100) 100
  and stored_huge = region_run_words (fun () -> stored_ring64 (top - 100)) (top - 100) in
  Format.printf
    "id magnitude (stored 64-ring, 8-node region): %.0f words from id 100, %.0f from \
     id 2^40-100 (%.2fx)@."
    stored_low stored_huge (stored_huge /. stored_low);
  assert (stored_huge <= 2.0 *. stored_low);
  let star6, ring6 = explorer_cost_per_move () in
  Format.printf
    "explorer cost per move: %.2f us per transition on star:6 (hub crash, to 50000 \
     states), %.2f on ring6 (cascade {2,3}+4) (%.2fx)@."
    star6 ring6 (star6 /. ring6);
  assert (star6 <= 1.5 *. ring6);
  Json_out.record ~section:"largen"
    [
      ( "implicit_ring_100k",
        Cliffedge_report.Json.Obj
          [
            ("ce_wall_ms", Cliffedge_report.Json.Float ce_ms);
            ("ce_msgs", Cliffedge_report.Json.Int (Stats.sent ce.stats));
            ("per_crash_us", Cliffedge_report.Json.Float per_crash_us);
            ("geom_resident_words", Cliffedge_report.Json.Int resident);
          ] );
      ( "id_magnitude_1m",
        Cliffedge_report.Json.Obj
          [
            ("words_at_id_100", Cliffedge_report.Json.Float low);
            ("words_at_id_999900", Cliffedge_report.Json.Float high);
            ("words_at_id_2p40_minus_100", Cliffedge_report.Json.Float huge);
          ] );
      ( "id_magnitude_stored_ring64",
        Cliffedge_report.Json.Obj
          [
            ("words_from_id_100", Cliffedge_report.Json.Float stored_low);
            ("words_from_id_2p40_minus_100", Cliffedge_report.Json.Float stored_huge);
          ] );
      ( "explorer_us_per_transition",
        Cliffedge_report.Json.Obj
          [
            ("star6_hub_50k_states", Cliffedge_report.Json.Float star6);
            ("ring6_cascade_2_3_4", Cliffedge_report.Json.Float ring6);
          ] );
    ]

let all =
  [
    ("x1", x1);
    ("x2", x2);
    ("x3", x3);
    ("x4", x4);
    ("x5", x5);
    ("x6", x6);
    ("x7", x7);
    ("x8", x8);
    ("x9", x9);
    ("x10", x10);
    ("x11", x11);
    ("x12", x12);
    ("x13", x13);
    ("x14", x14);
    ("x15", x15);
    ("x16", fun () -> x16 ());
    ("trace", trace_smoke);
    ("largen", largen_smoke);
  ]

let run_all () =
  List.iter
    (fun (name, f) ->
      Format.printf "@.";
      ignore name;
      f ())
    all
