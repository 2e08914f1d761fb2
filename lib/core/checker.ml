open Cliffedge_graph
module Obs = Cliffedge_obs

type property =
  | CD1_integrity
  | CD2_view_accuracy
  | CD3_locality
  | CD4_border_termination
  | CD5_uniform_border_agreement
  | CD6_view_convergence
  | CD7_progress

let property_name = function
  | CD1_integrity -> "CD1 (integrity)"
  | CD2_view_accuracy -> "CD2 (view accuracy)"
  | CD3_locality -> "CD3 (locality)"
  | CD4_border_termination -> "CD4 (border termination)"
  | CD5_uniform_border_agreement -> "CD5 (uniform border agreement)"
  | CD6_view_convergence -> "CD6 (view convergence)"
  | CD7_progress -> "CD7 (progress)"

type violation = { property : property; description : string; events : int list }

type report = {
  violations : violation list;
  geometry : Fault_geometry.t;
  correct : Node_set.t;
  decisions_checked : int;
  pairs_checked : int;
}

let ok report = report.violations = []

(* [events] cites the causal-log events that witness the violation
   (decision events, first offending sends, crash injections); empty
   when the outcome carries no log entries for them, e.g. fabricated
   test outcomes. *)
let violate ?(events = []) property fmt =
  Format.kasprintf (fun description -> { property; description; events }) fmt

(* Decision events are optional ([Runner.decision.event]); collect the
   present ones in citation order. *)
let cite opts = List.filter_map Fun.id opts

(* Earliest injected crash time per node. *)
let crash_times crashes =
  List.fold_left
    (fun acc (time, p) ->
      match Node_map.find_opt p acc with
      | Some earlier when earlier <= time -> acc
      | _ -> Node_map.add p time acc)
    Node_map.empty crashes

let check_cd1 (decisions : 'v Runner.decision list) =
  (* The state machine decides at most once; defend against regressions
     by checking the trace anyway. *)
  let rec scan acc seen = function
    | [] -> acc
    | (d : 'v Runner.decision) :: rest ->
        let acc =
          match Node_map.find_opt d.node seen with
          | Some (first : 'v Runner.decision) ->
              violate
                ~events:(cite [ first.event; d.event ])
                CD1_integrity "node %a decided more than once" Node_id.pp d.node
              :: acc
          | None -> acc
        in
        scan acc (Node_map.add d.node d seen) rest
  in
  scan [] Node_map.empty decisions

let check_cd2 graph crash_time (decisions : 'v Runner.decision list) =
  List.concat_map
    (fun (d : 'v Runner.decision) ->
      let events = cite [ d.event ] in
      let connected =
        if Graph.is_region graph d.view then []
        else
          [
            violate ~events CD2_view_accuracy "decided view %a is not a region"
              View.pp d.view;
          ]
      in
      let all_crashed =
        Node_set.fold
          (fun p acc ->
            match Node_map.find_opt p crash_time with
            | Some t when t <= d.time -> acc
            | _ ->
                violate ~events CD2_view_accuracy
                  "node %a in view decided by %a at t=%.1f had not crashed" Node_id.pp
                  p Node_id.pp d.node d.time
                :: acc)
          d.view []
      in
      let borders =
        if Node_set.mem d.node (Graph.border graph d.view) then []
        else
          [
            violate ~events CD2_view_accuracy "decider %a is not on border of %a"
              Node_id.pp d.node View.pp d.view;
          ]
      in
      connected @ all_crashed @ borders)
    decisions

let check_cd3 geometry ~first_send stats =
  let envelopes = Fault_geometry.communication_envelope geometry in
  let pairs = Cliffedge_net.Stats.pairs stats in
  let violations =
    List.filter_map
      (fun (src, dst) ->
        let covered =
          List.exists
            (fun env -> Node_set.mem src env && Node_set.mem dst env)
            envelopes
        in
        if covered then None
        else
          let events =
            cite
              [
                Hashtbl.find_opt first_send
                  (Node_id.to_int src, Node_id.to_int dst);
              ]
          in
          Some
            (violate ~events CD3_locality
               "message %a -> %a outside every faulty domain's envelope" Node_id.pp
               src Node_id.pp dst))
      pairs
  in
  (violations, List.length pairs)

let decisions_by_node decisions =
  List.fold_left
    (fun acc (d : 'v Runner.decision) -> Node_map.add d.node d acc)
    Node_map.empty decisions

let check_cd4 graph correct ~quiescent by_node (decisions : 'v Runner.decision list) =
  if not quiescent then
    [
      violate CD4_border_termination
        "run not quiescent (event cap hit): border termination unverifiable";
    ]
  else
    List.concat_map
      (fun (d : 'v Runner.decision) ->
        Node_set.fold
          (fun q acc ->
            if Node_set.mem q correct && not (Node_map.mem q by_node) then
              violate
                ~events:(cite [ d.event ])
                CD4_border_termination
                "correct node %a on border of decided view %a never decided"
                Node_id.pp q View.pp d.view
              :: acc
            else acc)
          (Graph.border graph d.view)
          [])
      decisions

let check_cd5 graph value_equal by_node (decisions : 'v Runner.decision list) =
  List.concat_map
    (fun (d : 'v Runner.decision) ->
      Node_set.fold
        (fun q acc ->
          match Node_map.find_opt q by_node with
          | None -> acc
          | Some (dq : 'v Runner.decision) ->
              if Node_set.equal dq.view d.view && value_equal dq.value d.value then
                acc
              else
                violate
                  ~events:(cite [ d.event; dq.event ])
                  CD5_uniform_border_agreement
                  "%a decided %a but %a on its border decided %a" Node_id.pp d.node
                  View.pp d.view Node_id.pp q View.pp dq.view
                :: acc)
        (Graph.border graph d.view)
        [])
    decisions

let check_cd6 correct (decisions : 'v Runner.decision list) =
  let correct_decisions =
    List.filter (fun (d : 'v Runner.decision) -> Node_set.mem d.node correct) decisions
  in
  let rec pairs acc = function
    | [] -> acc
    | (d : 'v Runner.decision) :: rest ->
        let acc =
          List.fold_left
            (fun acc (e : 'v Runner.decision) ->
              let overlap = not (Node_set.is_empty (Node_set.inter d.view e.view)) in
              if overlap && not (Node_set.equal d.view e.view) then
                violate
                  ~events:(cite [ d.event; e.event ])
                  CD6_view_convergence
                  "overlapping distinct views decided: %a by %a vs %a by %a" View.pp
                  d.view Node_id.pp d.node View.pp e.view Node_id.pp e.node
                :: acc
              else acc)
            acc rest
        in
        pairs acc rest
  in
  pairs [] correct_decisions

let check_cd7 graph geometry correct ~quiescent ~crash_ev ~stall_evs by_node =
  let clusters = Fault_geometry.cluster_borders geometry in
  if clusters = [] then []
  else if not (quiescent : bool) then
    [ violate CD7_progress "run not quiescent (event cap hit): progress unverifiable" ]
  else
    List.filter_map
      (fun border ->
        let has_decider =
          Node_set.exists
            (fun p -> Node_set.mem p correct && Node_map.mem p by_node)
            border
        in
        if has_decider then None
        else
          (* Cite the crash injections this cluster is about (crashed
             neighbours of the border) and any ARQ stalls confined to
             the border — the inputs a progress failure traces back
             to. *)
          let crashes =
            Node_set.fold
              (fun p acc ->
                Node_set.fold
                  (fun q acc ->
                    if not (Node_set.mem q correct) then
                      match Hashtbl.find_opt crash_ev (Node_id.to_int q) with
                      | Some seq -> seq :: acc
                      | None -> acc
                    else acc)
                  (Graph.neighbours graph p) acc)
              border []
          in
          let stalls =
            List.filter_map
              (fun (src, dst, seq) ->
                if Node_set.mem src border && Node_set.mem dst border then Some seq
                else None)
              stall_evs
          in
          let events = List.sort_uniq Int.compare (crashes @ stalls) in
          Some
            (violate ~events CD7_progress
               "no correct node decided in cluster bordered by %a" Node_set.pp border))
      clusters

(* The default decision-value equality is the one intentional use of
   polymorphic [=] in lib/: ['v] is caller-supplied and opaque here, so
   there is no monomorphic comparator to name. *)
let check ?(value_equal = (( = ) [@lint.allow "no-poly-compare"]))
    (outcome : 'v Runner.outcome) =
  let graph = outcome.graph in
  (* The runner hands over the incrementally-maintained geometry; only
     fabricated outcomes (tests) fall back to the batch
     recomputation. *)
  let geometry =
    match outcome.geometry with
    | Some g -> g
    | None -> Fault_geometry.compute graph ~faulty:outcome.crashed
  in
  let correct = Node_set.diff (Graph.nodes graph) outcome.crashed in
  let crash_time = crash_times outcome.crashes in
  let by_node = decisions_by_node outcome.decisions in
  (* One scan of the causal log collects the witness events citations
     draw from: the first Send per ordered pair (CD3), each node's
     Crash injection and the ARQ Stall events (CD7). *)
  let first_send : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let crash_ev : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let stall_evs = ref [] in
  Obs.Log.iter outcome.obs (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Send { dst; _ } ->
          let key = (Node_id.to_int e.Obs.Event.node, Node_id.to_int dst) in
          if not (Hashtbl.mem first_send key) then
            Hashtbl.add first_send key e.Obs.Event.seq
      | Obs.Event.Crash ->
          let key = Node_id.to_int e.Obs.Event.node in
          if not (Hashtbl.mem crash_ev key) then Hashtbl.add crash_ev key e.Obs.Event.seq
      | Obs.Event.Stall { dst } ->
          stall_evs := (e.Obs.Event.node, dst, e.Obs.Event.seq) :: !stall_evs
      | _ -> ());
  let cd3, pairs_checked = check_cd3 geometry ~first_send outcome.stats in
  let violations =
    check_cd1 outcome.decisions
    @ check_cd2 graph crash_time outcome.decisions
    @ cd3
    @ check_cd4 graph correct ~quiescent:outcome.quiescent by_node outcome.decisions
    @ check_cd5 graph value_equal by_node outcome.decisions
    @ check_cd6 correct outcome.decisions
    @ check_cd7 graph geometry correct ~quiescent:outcome.quiescent ~crash_ev
        ~stall_evs:(List.rev !stall_evs) by_node
  in
  {
    violations;
    geometry;
    correct;
    decisions_checked = List.length outcome.decisions;
    pairs_checked;
  }

let pp_report ppf report =
  if ok report then
    Format.fprintf ppf "all properties hold (%d decision(s), %d pair(s) checked)"
      report.decisions_checked report.pairs_checked
  else begin
    Format.fprintf ppf "%d violation(s):" (List.length report.violations);
    List.iter
      (fun v ->
        Format.fprintf ppf "@.  %s: %s" (property_name v.property) v.description;
        match v.events with
        | [] -> ()
        | events ->
            Format.fprintf ppf " [events";
            List.iteri
              (fun i seq ->
                Format.fprintf ppf "%s #%d" (if i > 0 then "," else "") seq)
              events;
            Format.fprintf ppf "]")
      report.violations
  end
