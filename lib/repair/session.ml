open Cliffedge_graph
module View = Cliffedge.View
module Runner = Cliffedge.Runner
module Checker = Cliffedge.Checker

type outcome = {
  runner : Plan.t Runner.outcome;
  report : Checker.report;
  plans : (View.t * Plan.t) list;
  healed_overlay : Graph.t;
  healed : bool;
}

let repair ?options ?(strategy = Planner.Chain_border) ~graph ~crashes () =
  let runner =
    Runner.run ?options ~graph ~crashes
      ~propose_value:(Planner.propose strategy graph)
      ()
  in
  let report = Checker.check ~value_equal:Plan.equal runner in
  let plans =
    List.map
      (fun view ->
        let d =
          List.find
            (fun (d : Plan.t Runner.decision) -> Node_set.equal d.view view)
            runner.decisions
        in
        (view, d.value))
      (Runner.decided_views runner)
  in
  let survivors = Node_set.diff (Graph.nodes graph) runner.crashed in
  let healed_overlay =
    List.fold_left
      (fun g (_, plan) -> Plan.apply g plan)
      (Graph.induced graph survivors)
      (List.filter (fun (_, p) -> Plan.touches_only p survivors) plans)
  in
  let healed = Plan.heals graph ~crashed:runner.crashed (List.map snd plans) in
  { runner; report; plans; healed_overlay; healed }

let pp ppf outcome =
  Format.fprintf ppf "@[<v>repair session: %d region(s) agreed, healed=%b@,"
    (List.length outcome.plans) outcome.healed;
  List.iter
    (fun (view, plan) ->
      Format.fprintf ppf "  region %a -> plan %a@," View.pp view Plan.pp plan)
    outcome.plans;
  Format.fprintf ppf "%a@]" Checker.pp_report outcome.report
