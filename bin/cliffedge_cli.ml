(* Command-line front end.

   Subcommands:
     run    — run one cliff-edge agreement on a generated topology
     paper  — run one of the paper's figure scenarios (fig1a, fig1b, fig2)
     sweep  — region-size sweep on one topology, one table row per size
     dot    — emit Graphviz source for a topology and fault pattern

   Examples:
     cliffedge_cli run --topology torus:16x16 --region-size 6 --seed 3
     cliffedge_cli run --topology ring:64 --cascade 3 --raw-fd
     cliffedge_cli run --topology ring:32 --faults drop:0.2,dup:0.05 --transport arq
     cliffedge_cli paper fig1b
     cliffedge_cli sweep --topology torus:16x16 --sizes 1,2,4,8,16
     cliffedge_cli mcheck --topology path:3 --crash 1 --max-drops 1
     cliffedge_cli dot --topology grid:8x8 --region-size 5 > g.dot *)

open Cmdliner
open Cliffedge_graph
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker
module Scenario = Cliffedge.Scenario
module Fault_gen = Cliffedge_workload.Fault_gen
module Latency = Cliffedge_net.Latency
module Faults = Cliffedge_net.Faults
module Transport = Cliffedge_net.Transport
module Prng = Cliffedge_prng.Prng
module Table = Cliffedge_report.Table
module Obs = Cliffedge_obs

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)

let msg_result r = Result.map_error (fun e -> `Msg e) r

let topology_conv =
  let parse s = msg_result (Topology.spec_of_string s) in
  Arg.conv (parse, Topology.pp_spec)

let latency_conv =
  let parse s = msg_result (Latency.of_string s) in
  Arg.conv (parse, Latency.pp)

let faults_conv =
  let parse s = msg_result (Faults.of_string s) in
  Arg.conv (parse, Faults.pp)

let topology_arg =
  Arg.(
    value
    & opt topology_conv (Topology.Ring 32)
    & info [ "t"; "topology" ] ~docv:"SPEC"
        ~doc:
          "Topology: ring:N, path:N, grid:WxH, torus:WxH, complete:N, star:N, \
           tree:N, er:N:P, ws:N:K:BETA, ba:N:M, geo:N:R, or an implicit \
           family, never materialized: iring:N, itorus:WxH, igeo:N:R, \
           iplaw:N.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let region_size_arg =
  Arg.(
    value
    & opt int 3
    & info [ "k"; "region-size" ] ~docv:"K" ~doc:"Crashed region size in nodes.")

let cascade_arg =
  Arg.(
    value
    & opt int 0
    & info [ "cascade" ] ~docv:"DEPTH"
        ~doc:"Extend the region by DEPTH additional staggered crashes.")

let no_early_arg =
  Arg.(
    value & flag
    & info [ "no-early-termination" ]
        ~doc:
          "Run the base |B|-1-round protocol instead of the footnote-6 \
           early-termination mode (the default).")

let raw_fd_arg =
  Arg.(
    value & flag
    & info [ "raw-fd" ]
        ~doc:
          "Use the raw perfect failure detector (notifications may overtake \
           in-flight messages), reproducing the CD5 anomaly of DESIGN.md.")

let msg_latency_arg =
  Arg.(
    value
    & opt latency_conv (Latency.Uniform { min = 1.0; max = 10.0 })
    & info [ "latency" ] ~docv:"MODEL" ~doc:"Message latency: const:D, uniform:A:B, exp:MIN:MEAN.")

let fd_latency_arg =
  Arg.(
    value
    & opt latency_conv (Latency.Uniform { min = 1.0; max = 20.0 })
    & info [ "detection-latency" ] ~docv:"MODEL" ~doc:"Failure-detection latency model.")

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault plan for the network, e.g. drop:0.1,dup:0.02,reorder:3 or \
           cut:12-30:4-9 (repeatable clauses, comma-separated).  Without \
           $(b,--faults) the channels are reliable FIFO, as the paper assumes.")

let transport_arg =
  Arg.(
    value
    & opt (enum [ ("arq", `Arq); ("raw", `Raw) ]) `Arq
    & info [ "transport" ] ~docv:"MODE"
        ~doc:
          "Channel stack over a faulty network: $(b,arq) (default) repairs it \
           with the go-back-N reliable transport; $(b,raw) exposes the faults \
           to the protocol directly.  Only meaningful with $(b,--faults).")

let channel_of ~faults ~transport =
  match faults with
  | None -> Transport.Reliable
  | Some plan -> (
      match transport with
      | `Raw -> Transport.Raw_faulty plan
      | `Arq -> Transport.Arq_over_faulty (plan, Transport.default_policy))

let options ~seed ~no_early ~raw_fd ~msg_latency ~fd_latency ~faults ~transport =
  {
    Runner.default_options with
    seed;
    early_stopping = not no_early;
    channel_consistent_fd = not raw_fd;
    channel = channel_of ~faults ~transport;
    message_latency = msg_latency;
    detection_latency = fd_latency;
  }

(* A region size the topology cannot hold is an error against [option]
   (exit 124 through [Term.term_result], like a malformed spec), with
   the bound [Fault_gen.check_size] states.  So is a crashed region with
   no border: on a disconnected topology it can fill its whole component
   (the seed node's component is too small, or the cascade exhausts it),
   and then no correct node can decide, which CD7 would blame on the
   protocol.  The seed node is drawn here, as [Fault_gen.connected_region]
   draws it, so that the error can name it. *)
let build_workload ~option ~spec ~seed ~region_size ~cascade =
  let rng = Prng.create seed in
  let graph = Topology.build rng spec in
  match Fault_gen.check_size graph ~size:region_size with
  | Error e -> Error (`Msg (Printf.sprintf "option '%s': %s" option e))
  | Ok () ->
      let seed_node = Node_set.random_element rng (Graph.nodes graph) in
      let region =
        Fault_gen.connected_region_from rng graph ~seed_node ~size:region_size
      in
      let crashes, final_region =
        if cascade > 0 then
          Fault_gen.cascade rng graph ~seed_region:region ~depth:cascade
            ~start:10.0 ~interval:30.0
        else (Fault_gen.crash_at 10.0 region, region)
      in
      if Node_set.is_empty (Graph.border graph final_region) then
        Error
          (`Msg
            (Format.asprintf
               "option '%s': the crashed region grown from seed node %a \
                (size %d%s) fills its whole %d-node component and has no \
                correct border node; the topology is disconnected"
               option Node_id.pp seed_node region_size
               (if cascade > 0 then Printf.sprintf ", --cascade %d" cascade
                else "")
               (Node_set.cardinal final_region)))
      else Ok (graph, crashes, final_region)

let ( let+ ) r f = Result.map f r

let ( let* ) = Result.bind

(* A cut naming a node outside the topology severs no link, yet any
   --faults value moves the run onto ARQ: an option error, like a
   region the topology cannot hold. *)
let check_cuts graph faults =
  let outside id = not (Graph.mem_node id graph) in
  let endpoints =
    List.concat_map
      (fun (c : Faults.cut) -> [ c.a; c.b ])
      (Option.fold ~none:[] ~some:(fun (plan : Faults.t) -> plan.cuts) faults)
  in
  match List.find_opt outside endpoints with
  | None -> Ok ()
  | Some id ->
      Error
        (`Msg
          (Format.asprintf
             "option '--faults': cut endpoint %a is not in the topology (the \
              topology has %d nodes)"
             Node_id.pp id (Graph.node_count graph)))

(* Node ids named on the command line must be nodes of the topology. *)
let node_of_graph graph i =
  if i >= 0 && Graph.mem_node (Node_id.of_int i) graph then Node_id.of_int i
  else begin
    Format.eprintf "node n%d is not in the topology@." i;
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let action spec seed region_size cascade no_early raw_fd msg_latency fd_latency
      faults transport timeline =
    let* graph, crashes, _ =
      build_workload ~option:"--region-size" ~spec ~seed ~region_size ~cascade
    in
    let+ () = check_cuts graph faults in
    let scenario =
      Scenario.make
        ~options:
          (options ~seed ~no_early ~raw_fd ~msg_latency ~fd_latency ~faults ~transport)
        ~name:(Format.asprintf "%a seed=%d" Topology.pp_spec spec seed)
        ~graph ~crashes ()
    in
    let outcome, report = Scenario.execute scenario in
    Format.printf "%a@." Scenario.pp_result (scenario, outcome, report);
    if timeline then
      Format.printf "@.%a"
        (Cliffedge.Timeline.pp ~names:scenario.Scenario.names ~value_to_string:Fun.id)
        outcome;
    if Checker.ok report then 0 else 1
  in
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:
            "Print the chronological narrative of crashes and protocol steps, \
             read from the causal log (see $(b,trace) for every event).")
  in
  let term =
    Term.(
      term_result ~usage:true
        (const action $ topology_arg $ seed_arg $ region_size_arg $ cascade_arg
        $ no_early_arg $ raw_fd_arg $ msg_latency_arg $ fd_latency_arg
        $ faults_arg $ transport_arg $ timeline_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one cliff-edge agreement and verify CD1-CD7.")
    term

(* ------------------------------------------------------------------ *)
(* paper                                                               *)

let paper_cmd =
  let action name seed =
    let scenario =
      match name with
      | "fig1a" -> Cliffedge.Paper_scenarios.fig1a
      | "fig1b" -> Cliffedge.Paper_scenarios.fig1b ()
      | "fig2" -> Cliffedge.Paper_scenarios.fig2
      | other ->
          Format.eprintf "unknown scenario %S (fig1a | fig1b | fig2)@." other;
          exit 2
    in
    let scenario = Scenario.with_seed scenario seed in
    let outcome, report = Scenario.execute scenario in
    Format.printf "%a@." Scenario.pp_result (scenario, outcome, report);
    if Checker.ok report then 0 else 1
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"fig1a, fig1b or fig2.")
  in
  Cmd.v
    (Cmd.info "paper" ~doc:"Run one of the paper's figure scenarios.")
    Term.(const action $ name_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_cmd =
  let action spec seed sizes =
    let table =
      Table.create
        ~title:(Format.asprintf "region-size sweep on %a" Topology.pp_spec spec)
        ~columns:[ "k"; "border"; "rounds"; "msgs"; "units"; "t"; "ok" ]
    in
    let rec rows = function
      | [] -> Ok ()
      | k :: ks ->
          Result.bind
            (build_workload ~option:"--sizes" ~spec ~seed ~region_size:k
               ~cascade:0) (fun (graph, crashes, region) ->
              let outcome =
                Runner.run ~graph ~crashes
                  ~propose_value:Scenario.default_propose ()
              in
              let report = Checker.check ~value_equal:String.equal outcome in
              Table.add_row table
                [
                  Table.cell "%d" k;
                  Table.cell "%d" (Node_set.cardinal (Graph.border graph region));
                  Table.cell "%d" (Runner.max_round outcome);
                  Table.cell "%d" (Cliffedge_net.Stats.sent outcome.stats);
                  Table.cell "%d" (Cliffedge_net.Stats.units_sent outcome.stats);
                  Table.cell "%.0f" outcome.duration;
                  Table.cell "%b" (Checker.ok report);
                ];
              rows ks)
    in
    let+ () = rows sizes in
    Table.print table;
    0
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "sizes" ] ~docv:"K1,K2,..." ~doc:"Region sizes to sweep.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the crashed-region size and tabulate costs.")
    Term.(term_result ~usage:true (const action $ topology_arg $ seed_arg $ sizes_arg))

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)

let dot_cmd =
  let action spec seed region_size =
    let+ graph, _, region =
      build_workload ~option:"--region-size" ~spec ~seed ~region_size ~cascade:0
    in
    let style =
      { Dot.default_style with crashed = region; border = Graph.border graph region }
    in
    print_string (Dot.to_string ~style graph);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit Graphviz source with the fault pattern highlighted.")
    Term.(term_result ~usage:true (const action $ topology_arg $ seed_arg $ region_size_arg))

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

(* "3.4" -> {n3, n4}: an instance key is the dot-separated decimal ids
   of nodes of [graph]. *)
let view_of_key graph key =
  let node s =
    match int_of_string_opt s with
    | Some i when String.for_all (function '0' .. '9' -> true | _ -> false) s ->
        node_of_graph graph i
    | Some _ | None ->
        Format.eprintf "bad instance %S (expected dot-separated node ids, e.g. 5.6)@."
          key;
        exit 2
  in
  Node_set.of_list (List.map node (String.split_on_char '.' key))

let trace_cmd =
  let action spec seed region_size cascade no_early raw_fd msg_latency fd_latency
      faults transport format nodes kinds instance metrics =
    List.iter
      (fun k ->
        if not (List.exists (String.equal k) Obs.Event.kind_names) then begin
          Format.eprintf "unknown event kind %S (expected one of: %s)@." k
            (String.concat ", " Obs.Event.kind_names);
          exit 2
        end)
      kinds;
    let* graph, crashes, _ =
      build_workload ~option:"--region-size" ~spec ~seed ~region_size ~cascade
    in
    let+ () = check_cuts graph faults in
    let nodes = List.map (node_of_graph graph) nodes in
    let instance = Option.map (view_of_key graph) instance in
    let outcome =
      Runner.run
        ~options:
          (options ~seed ~no_early ~raw_fd ~msg_latency ~fd_latency ~faults ~transport)
        ~graph ~crashes ~propose_value:Scenario.default_propose ()
    in
    let keep e =
      (match nodes with
      | [] -> true
      | ns -> List.exists (Node_id.equal e.Obs.Event.node) ns)
      && (match kinds with
         | [] -> true
         | ks -> List.exists (String.equal (Obs.Event.kind_name e.Obs.Event.kind)) ks)
      &&
      match (instance, e.Obs.Event.instance) with
      | None, _ -> true
      | Some view, Some v -> Node_set.equal view v
      | Some _, None -> false
    in
    let events = List.filter keep (Obs.Log.to_list outcome.Runner.obs) in
    (match format with
    | `Pp -> Format.printf "%a" Obs.Export.pp events
    | `Jsonl -> print_string (Obs.Export.jsonl events)
    | `Chrome ->
        print_string (Cliffedge_report.Json.to_string (Obs.Export.chrome events)));
    if metrics then
      (* Latency histograms always come from the unfiltered log: a
         filter that drops a parent must not distort a latency. *)
      Format.printf "%a" Obs.Metrics.pp (Obs.Metrics.of_log outcome.Runner.obs);
    0
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("pp", `Pp); ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Pp
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,pp) (human-readable, default), $(b,jsonl) (one \
             JSON object per event) or $(b,chrome) (Chrome trace_event JSON, \
             loadable in Perfetto or about:tracing).")
  in
  let nodes_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "node" ] ~docv:"N1,N2,..."
          ~doc:"Keep only events of these nodes (default: all).")
  in
  let kinds_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "kind" ] ~docv:"K1,K2,..."
          ~doc:
            "Keep only these event kinds, e.g. crash,suspect,send,deliver,\
             retransmit,stall,propose,reject,round,abort,early-outcome,decide.")
  in
  let instance_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "instance" ] ~docv:"KEY"
          ~doc:
            "Keep only events of this consensus instance: the proposed view's \
             node ids joined with dots, e.g. 3.4 for view {n3, n4}.  The view \
             is a set, so 4.3 selects the same events.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Also print the run's latency histograms (decide latency, round \
             latency, ARQ retransmit delay, failure-detection lag).")
  in
  let term =
    Term.(
      term_result ~usage:true
        (const action $ topology_arg $ seed_arg $ region_size_arg $ cascade_arg
        $ no_early_arg $ raw_fd_arg $ msg_latency_arg $ fd_latency_arg
        $ faults_arg $ transport_arg $ format_arg $ nodes_arg $ kinds_arg
        $ instance_arg $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one cliff-edge agreement and print its causal event trace \
          (optionally filtered, in pp/jsonl/Chrome format).")
    term

(* ------------------------------------------------------------------ *)
(* mcheck                                                              *)

let mcheck_cmd =
  let action spec crash_ids raw_fd no_early max_states max_drops max_dups =
    let rng = Prng.create 0 in
    let graph = Topology.build rng spec in
    let crashes = List.map (node_of_graph graph) crash_ids in
    let fd = if raw_fd then `Raw else `Channel_consistent in
    let channel =
      if max_drops = 0 && max_dups = 0 then `Reliable_fifo
      else `Lossy { Cliffedge_mcheck.Explorer.max_drops; max_dups }
    in
    let stats =
      Cliffedge_mcheck.Explorer.explore ~fd ~channel ~max_states
        ~early_stopping:(not no_early) ~graph ~crashes ()
    in
    Format.printf "%a@." Cliffedge_mcheck.Explorer.pp_stats stats;
    if Cliffedge_mcheck.Explorer.ok stats then 0 else 1
  in
  let crashes_arg =
    Arg.(
      required
      & opt (some (list int)) None
      & info [ "crash" ] ~docv:"N1,N2,..."
          ~doc:"Nodes to crash, injected in this order.")
  in
  let max_states_arg =
    Arg.(
      value
      & opt int 1_000_000
      & info [ "max-states" ] ~docv:"N" ~doc:"State-space exploration bound.")
  in
  let max_drops_arg =
    Arg.(
      value
      & opt int 0
      & info [ "max-drops" ] ~docv:"N"
          ~doc:
            "Lossy-channel scope: allow the adversary to discard up to N \
             queued messages (0 = reliable channels).")
  in
  let max_dups_arg =
    Arg.(
      value
      & opt int 0
      & info [ "max-dups" ] ~docv:"N"
          ~doc:
            "Lossy-channel scope: allow the adversary to duplicate up to N \
             queued messages (0 = reliable channels).")
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Exhaustively model-check CD1-CD7 over every schedule of a small \
          configuration.")
    Term.(
      const action $ topology_arg $ crashes_arg $ raw_fd_arg $ no_early_arg
      $ max_states_arg $ max_drops_arg $ max_dups_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "cliff-edge consensus: convergent detection of crashed regions" in
  let info = Cmd.info "cliffedge_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; paper_cmd; sweep_cmd; dot_cmd; trace_cmd; mcheck_cmd ]))
