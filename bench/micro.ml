(* Bechamel micro-benchmarks: cost of the primitives the experiments are
   built from, and one end-to-end agreement per protocol. *)

open Bechamel
open Cliffedge_graph
module Runner = Cliffedge.Runner
module Scenario = Cliffedge.Scenario
module Protocol = Cliffedge.Protocol
module Message = Cliffedge.Message
module Opinion = Cliffedge.Opinion
module Fault_gen = Cliffedge_workload.Fault_gen
module Prng = Cliffedge_prng.Prng
module Engine = Cliffedge_sim.Engine
module Table = Cliffedge_report.Table

let torus = Topology.torus 16 16

let region = Node_set.of_ints [ 119; 120; 121; 135; 136 ]

let bench_prng =
  let rng = Prng.create 1 in
  Test.make ~name:"prng: next_int64" (Staged.stage (fun () -> Prng.next_int64 rng))

let bench_border =
  Test.make ~name:"graph: border (5-node region, 16x16 torus)"
    (Staged.stage (fun () -> Graph.border torus region))

(* The row above probes a memo holding one entry, so it cannot see how
   long the hash chains are.  This one memoizes the borders of all 1 536
   connected 3-node regions of a fresh torus (each a path u - v - w
   around its unique middle node v) and times hits round-robin over them,
   with an index counter and no allocation.  The table is built as the
   benchmark's resource, not at module initialisation: kept live for the
   whole run, it made the other rows' timings noisy (the prng row's r^2
   fell from 0.99 to 0.2 or less). *)
let bench_border_memo =
  let allocate () =
    let graph = Topology.torus 16 16 in
    let regions =
      Array.of_list
        (List.concat_map
           (fun v ->
             let ns = Node_set.elements (Graph.neighbours graph v) in
             List.concat_map
               (fun u ->
                 List.filter_map
                   (fun w ->
                     if Node_id.compare u w < 0 then
                       Some (Node_set.of_list [ u; v; w ])
                     else None)
                   ns)
               ns)
           (Node_set.elements (Graph.nodes graph)))
    in
    Array.iter (fun r -> ignore (Graph.border graph r)) regions;
    (graph, regions, ref 0)
  in
  Test.make_with_resource
    ~name:"graph: border memo hit (1536 memoized 3-node regions, 16x16 torus)"
    Test.uniq ~allocate ~free:ignore
    (Staged.stage (fun (graph, regions, next) ->
         let i = !next in
         next := if i + 1 = Array.length regions then 0 else i + 1;
         Graph.border graph (Array.unsafe_get regions i)))

let bench_components =
  Test.make ~name:"graph: connected_components"
    (Staged.stage (fun () -> Graph.connected_components torus region))

let bench_ranking =
  let other = Node_set.of_ints [ 1; 2; 3; 17 ] in
  Test.make ~name:"ranking: compare"
    (Staged.stage (fun () -> Ranking.compare torus region other))

let bench_engine =
  Test.make ~name:"engine: schedule + run 256 events"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 0 to 255 do
           ignore (Engine.schedule e ~delay:(float_of_int (i mod 17)) ignore)
         done;
         Engine.run e))

let bench_protocol_step =
  (* One Deliver transition on a node participating in a 4-border
     instance. *)
  let graph = Topology.grid 5 5 in
  let cfg = Protocol.config ~graph ~propose_value:(fun _ _ -> "d") () in
  let st = Protocol.init ~self:(Node_id.of_int 7) in
  let st, _ = Protocol.handle cfg st Protocol.Init in
  let st, _ = Protocol.handle cfg st (Protocol.Crash (Node_id.of_int 12)) in
  let msg =
    Message.Round
      {
        round = 1;
        view = Node_set.of_ints [ 12 ];
        border = Node_set.of_ints [ 7; 11; 13; 17 ];
        opinions =
          Opinion.Vector.singleton (Node_id.of_int 11) (Opinion.Accept "d");
      }
  in
  Test.make ~name:"protocol: one Deliver transition"
    (Staged.stage (fun () ->
         Protocol.handle cfg st (Protocol.Deliver { src = Node_id.of_int 11; msg })))

let bench_cliffedge_e2e =
  let graph = Topology.ring 32 in
  let crashes = Fault_gen.crash_at 10.0 (Node_set.of_ints [ 10; 11 ]) in
  Test.make ~name:"e2e: cliff-edge agreement on 32-ring (2-node region)"
    (Staged.stage (fun () ->
         Runner.run ~graph ~crashes ~propose_value:Scenario.default_propose ()))

let bench_baseline_e2e =
  let graph = Topology.ring 32 in
  let crashes = Fault_gen.crash_at 10.0 (Node_set.of_ints [ 10; 11 ]) in
  Test.make ~name:"e2e: flooding baseline on 32-ring (same fault)"
    (Staged.stage (fun () -> Cliffedge_baseline.Global_runner.run ~graph ~crashes ()))

(* View construction under a cascade: absorbing a 64-node cascade one
   crash at a time, recomputing components by (memoized) BFS per crash —
   the paper-literal approach the protocol keeps. *)
let cascade_order =
  let rng = Prng.create 5 in
  let big_torus = Topology.torus 24 24 in
  let region =
    Fault_gen.connected_region_from rng big_torus ~seed_node:(Node_id.of_int 300)
      ~size:64
  in
  (big_torus, Node_set.elements region)

let bench_components_bfs =
  let graph, order = cascade_order in
  Test.make ~name:"view construction: BFS recompute per crash (64-node cascade)"
    (Staged.stage (fun () ->
         ignore
           (List.fold_left
              (fun acc p ->
                let acc = Node_set.add p acc in
                ignore (Graph.connected_components graph acc);
                acc)
              Node_set.empty order)))

let tests =
  [
    bench_prng;
    bench_border;
    bench_border_memo;
    bench_components;
    bench_ranking;
    bench_engine;
    bench_protocol_step;
    bench_cliffedge_e2e;
    bench_baseline_e2e;
    bench_components_bfs;
  ]

let pp_ns ppf ns =
  if ns < 1_000.0 then Format.fprintf ppf "%.1f ns" ns
  else if ns < 1_000_000.0 then Format.fprintf ppf "%.2f us" (ns /. 1_000.0)
  else Format.fprintf ppf "%.2f ms" (ns /. 1_000_000.0)

(* [only] restricts to tests whose name contains the given substring
   (used by the [smoke] command to keep `dune runtest` fast); [quota]
   and [stabilize] are exposed for the same reason. *)
let run ?(quota = 0.5) ?(stabilize = true) ?only () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let selected =
    match only with
    | None -> tests
    | Some fragment ->
        List.filter (fun t -> contains (Test.name t) fragment) tests
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let minor = Toolkit.Instance.minor_allocated in
  let major = Toolkit.Instance.major_allocated in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize () in
  let table =
    Table.create ~title:"micro-benchmarks (bechamel, OLS per-run estimates)"
      ~columns:[ "benchmark"; "time/run"; "minor w/run"; "r^2" ]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | None -> None
    | Some ols_result -> (
        match Analyze.OLS.estimates ols_result with
        | Some [ t ] -> Some t
        | _ -> None)
  in
  List.iter
    (fun test ->
      (* One raw run measured under three instances at once, so the
         time and the GC words of a benchmark come from the same
         iterations. *)
      let raw = Benchmark.all cfg [ clock; minor; major ] test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      let time_results = Analyze.all ols clock raw in
      let minor_results = Analyze.all ols minor raw in
      let major_results = Analyze.all ols major raw in
      Hashtbl.iter
        (fun name ols_result ->
          let time_estimate = estimate time_results name in
          let minor_words = estimate minor_results name in
          let major_words = estimate major_results name in
          let r_square = Analyze.OLS.r_square ols_result in
          let time =
            match time_estimate with
            | Some t -> Table.cell "%a" pp_ns t
            | None -> "?"
          in
          let mwords =
            match minor_words with Some w -> Table.cell "%.1f" w | None -> "?"
          in
          let r2 =
            match r_square with Some r -> Table.cell "%.4f" r | None -> "-"
          in
          Table.add_row table [ name; time; mwords; r2 ];
          match time_estimate with
          | Some t ->
              let opt key v =
                match v with
                | Some x -> [ (key, Cliffedge_report.Json.Float x) ]
                | None -> []
              in
              let fields =
                ("ns_per_run", Cliffedge_report.Json.Float t)
                :: (opt "minor_words_per_run" minor_words
                   @ opt "major_words_per_run" major_words
                   @ opt "r2" r_square)
              in
              Json_out.record ~section:"micro"
                [ (name, Cliffedge_report.Json.Obj fields) ]
          | None -> ())
        time_results)
    selected;
  Table.print table
