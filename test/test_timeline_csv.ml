(* Tests for the timeline narrative and CSV export. *)

open Cliffedge_graph
module Timeline = Cliffedge.Timeline
module Runner = Cliffedge.Runner
module Scenario = Cliffedge.Scenario
module Csv = Cliffedge_report.Csv
module Prng = Cliffedge_prng.Prng
module Fault_gen = Cliffedge_workload.Fault_gen
module Obs = Cliffedge_obs

let run_ring () =
  let graph = Topology.ring 10 in
  let region = Node_set.of_ints [ 3; 4 ] in
  let crashes = List.map (fun p -> (10.0, p)) (Node_set.elements region) in
  Runner.run ~graph ~crashes ~propose_value:Scenario.default_propose ()

(* The rendered narrative, one (time, node, event) triple per line. *)
let narrative outcome =
  Format.asprintf "%a" (Timeline.pp ?names:None ~value_to_string:Fun.id) outcome
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")
  |> List.map (fun line ->
         Scanf.sscanf line "t= %f %s %[^\n]" (fun time node event -> (time, node, event)))

let starts_with prefix (_, _, event) = String.starts_with ~prefix event

let test_timeline_ordered_and_complete () =
  let lines = narrative (run_ring ()) in
  (* Time-ordered. *)
  let times = List.map (fun (time, _, _) -> time) lines in
  Alcotest.(check bool) "sorted" true (times = List.sort Float.compare times);
  (* Crashes, proposals and decisions all appear. *)
  let count p = List.length (List.filter p lines) in
  Alcotest.(check int) "crashes" 2 (count (starts_with "CRASHES"));
  Alcotest.(check bool) "has proposals" true (count (starts_with "proposes") > 0);
  Alcotest.(check int) "decisions" 2 (count (starts_with "DECIDES"))

let test_timeline_pp_mentions_nodes () =
  let crashed =
    List.filter_map
      (fun ((_, node, _) as line) -> if starts_with "CRASHES" line then Some node else None)
      (narrative (run_ring ()))
  in
  Alcotest.(check (list string)) "mentions CRASH" [ "n3"; "n4" ] crashed

(* A run cut short by its event cap narrates only what happened: n7's
   crash at t=5000 is scheduled but never reached. *)
let test_timeline_stops_with_the_run () =
  let graph = Topology.ring 10 in
  let crashes =
    [ (10.0, Node_id.of_int 3); (10.0, Node_id.of_int 4); (5000.0, Node_id.of_int 7) ]
  in
  let options = { Runner.default_options with max_events = 8 } in
  let outcome =
    Runner.run ~options ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  Alcotest.(check bool) "cut short" false outcome.quiescent;
  let lines = narrative outcome in
  Alcotest.(check bool) "nothing after the stop" true
    (List.for_all (fun (time, _, _) -> time <= outcome.duration) lines);
  Alcotest.(check int) "only the crashes that happened" 2
    (List.length (List.filter (starts_with "CRASHES") lines))

let protocol_verb = function
  | Obs.Event.Crash -> Some "CRASHES"
  | Obs.Event.Propose -> Some "proposes"
  | Obs.Event.Reject -> Some "rejects"
  | Obs.Event.Abort -> Some "abandons attempt"
  | Obs.Event.Round { round } -> Some (Printf.sprintf "enters round %d" round)
  | Obs.Event.Early_outcome _ -> Some "broadcasts"
  | Obs.Event.Decide -> Some "DECIDES"
  | Obs.Event.Suspect _ | Obs.Event.Send _ | Obs.Event.Deliver _
  | Obs.Event.Retransmit _ | Obs.Event.Stall _ ->
      None

(* A cascade on a torus: stale proposals are rejected and abandoned, a
   border crash mid-agreement forces extra rounds, and early stopping
   broadcasts outcomes. *)
let test_timeline_is_the_log () =
  let graph = Topology.torus 5 5 in
  let rng = Prng.create 0 in
  let region = Fault_gen.connected_region rng graph ~size:2 in
  let crashes, _ =
    Fault_gen.cascade rng graph ~seed_region:region ~depth:2 ~start:10.0 ~interval:30.0
  in
  let outcome =
    Runner.run ~graph ~crashes ~propose_value:Scenario.default_propose ()
  in
  let events =
    List.filter_map
      (fun e -> Option.map (fun verb -> (e, verb)) (protocol_verb e.Obs.Event.kind))
      (Obs.Log.to_list outcome.obs)
  in
  List.iter
    (fun kind ->
      if
        not
          (List.exists
             (fun (e, _) -> String.equal (Obs.Event.kind_name e.Obs.Event.kind) kind)
             events)
      then Alcotest.failf "the scenario records no %s event" kind)
    [ "propose"; "reject"; "round"; "abort"; "early-outcome"; "decide" ];
  let lines = narrative outcome in
  Alcotest.(check int) "one line per crash or protocol event" (List.length events)
    (List.length lines);
  List.iter2
    (fun (e, verb) ((time, node, event) as line) ->
      Alcotest.(check string) "time" (Printf.sprintf "%.2f" e.Obs.Event.time)
        (Printf.sprintf "%.2f" time);
      Alcotest.(check string) "node" (Node_id.to_string e.Obs.Event.node) node;
      if not (starts_with verb line) then
        Alcotest.failf "event #%d: expected %S, got %S" e.Obs.Event.seq verb event;
      if String.equal verb "DECIDES" then
        match
          List.find_opt
            (fun (d : string Runner.decision) -> d.event = Some e.Obs.Event.seq)
            outcome.decisions
        with
        | Some d ->
            Alcotest.(check string) "decided value" d.value
              (Scanf.sscanf event "DECIDES %S" Fun.id)
        | None -> Alcotest.failf "event #%d has no decision" e.Obs.Event.seq)
    events lines

let test_decision_latency_positive () =
  let outcome = run_ring () in
  match Timeline.decision_latency outcome with
  | [ (view, latency) ] ->
      Alcotest.(check (list int)) "view" [ 3; 4 ] (Node_set.to_ints view);
      Alcotest.(check bool) "positive and plausible" true
        (latency > 0.0 && latency < 200.0)
  | other -> Alcotest.failf "expected one view, got %d" (List.length other)

let test_csv_render () =
  let csv = Csv.create ~columns:[ "a"; "b" ] in
  Csv.add_row csv [ "1"; "x" ];
  Csv.add_row csv [ "2"; "y" ];
  Alcotest.(check string) "render" "a,b\n1,x\n2,y\n" (Csv.render csv)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let test_csv_row_width_checked () =
  let csv = Csv.create ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Csv.add_row: row width mismatches header") (fun () ->
      Csv.add_row csv [ "only" ])

let test_csv_write_file () =
  let csv = Csv.create ~columns:[ "n" ] in
  Csv.add_row csv [ "7" ];
  let path = Filename.temp_file "cliffedge" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file csv path;
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file content" "n\n7\n" content)

let suite =
  ( "timeline/csv",
    [
      Alcotest.test_case "timeline ordered" `Quick test_timeline_ordered_and_complete;
      Alcotest.test_case "timeline pp" `Quick test_timeline_pp_mentions_nodes;
      Alcotest.test_case "timeline stops with the run" `Quick
        test_timeline_stops_with_the_run;
      Alcotest.test_case "timeline is the log" `Quick test_timeline_is_the_log;
      Alcotest.test_case "decision latency" `Quick test_decision_latency_positive;
      Alcotest.test_case "csv render" `Quick test_csv_render;
      Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
      Alcotest.test_case "csv row width" `Quick test_csv_row_width_checked;
      Alcotest.test_case "csv write file" `Quick test_csv_write_file;
    ] )

(* Table -> CSV bridge. *)
let test_table_to_csv () =
  let module Table = Cliffedge_report.Table in
  let t = Table.create ~title:"demo table" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "x,y" ];
  Alcotest.(check string) "csv" "a,b\n1,\"x,y\"\n" (Csv.render (Table.to_csv t));
  Alcotest.(check string) "title" "demo table" (Table.title t)

let test_table_slug () =
  let module Table = Cliffedge_report.Table in
  Alcotest.(check string) "slug" "x4-locality-claim-n-2"
    (Table.slug "X4 (locality claim): N^2!");
  Alcotest.(check string) "collapse" "a-b" (Table.slug "a   b")

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "table to csv" `Quick test_table_to_csv;
        Alcotest.test_case "table slug" `Quick test_table_slug;
      ] )
