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
  decisions_checked : int;
  pairs_checked : int;
}

let ok report = report.violations = []

(* [events] cites the causal-log events that witness the violation
   (decision events, first offending sends, crash injections); empty
   when the summary carries no log entries for them, e.g. fabricated
   test outcomes or explored schedules. *)
let violate ?(events = []) property fmt =
  Format.kasprintf (fun description -> { property; description; events }) fmt

(* Decision events are optional ([Runner.decision.event]); collect the
   present ones in citation order. *)
let cite opts = List.filter_map Fun.id opts

(* Every check looks a decision up by node: [by_node] holds each
   decider's latest decision, [awaiting] the decisions whose view had
   the key on its border before the key decided, latest first. *)
type 'v decisions = {
  latest_first : 'v Runner.decision list;
  by_node : 'v Runner.decision Node_map.t;
  awaiting : 'v Runner.decision list Node_map.t;
}

let no_decisions =
  { latest_first = []; by_node = Node_map.empty; awaiting = Node_map.empty }

(* [t] with [d] added, whose view has [border]. *)
let record (d : 'v Runner.decision) border t =
  let by_node = Node_map.add d.node d t.by_node in
  let awaiting = ref t.awaiting in
  Node_set.iter
    (fun q ->
      if not (Node_map.mem q by_node) then
        let earlier = Option.value ~default:[] (Node_map.find_opt q !awaiting) in
        awaiting := Node_map.add q (d :: earlier) !awaiting)
    border;
  { latest_first = d :: t.latest_first; by_node; awaiting = !awaiting }

let decision_list t = t.latest_first

let crash_times crashes =
  List.fold_left
    (fun acc (time, p) ->
      match Node_map.find_opt p acc with
      | Some earlier when earlier <= time -> acc
      | _ -> Node_map.add p time acc)
    Node_map.empty crashes

type 'v summary = {
  graph : Graph.t;
  crash_time : float Node_map.t;
  decisions : 'v decisions;
  crashed : Node_set.t;
  pairs : (Node_id.t * Node_id.t) list Lazy.t;
  quiescent : bool;
  geometry : Fault_geometry.t Lazy.t;
  obs : Obs.Log.t;
}

(* Liveness is tested node by node: the complement of [crashed] in the
   whole graph would cost O(N) words on every check. *)
let correct s p = Graph.mem_node p s.graph && not (Node_set.mem p s.crashed)

(* Decision-time properties: one new decision against those before it. *)

let cd1 decided (d : 'v Runner.decision) =
  (* The state machine decides at most once; defend against regressions
     by checking the trace anyway. *)
  match Node_map.find_opt d.node decided.by_node with
  | Some (first : 'v Runner.decision) ->
      let events = cite [ first.event; d.event ] in
      [ violate ~events CD1_integrity "node %a decided more than once" Node_id.pp d.node ]
  | None -> []

let fail_cd2 (d : 'v Runner.decision) fmt =
  violate ~events:(cite [ d.event ]) CD2_view_accuracy fmt

let cd2 s (d : 'v Runner.decision) border =
  let connected =
    if Graph.is_region s.graph d.view then []
    else [ fail_cd2 d "decided view %a is not a region" View.pp d.view ]
  in
  let all_crashed =
    Node_set.fold
      (fun p acc ->
        match Node_map.find_opt p s.crash_time with
        | Some t when t <= d.time -> acc
        | _ ->
            fail_cd2 d "node %a in view decided by %a at t=%.1f had not crashed"
              Node_id.pp p Node_id.pp d.node d.time
            :: acc)
      d.view []
  in
  let borders =
    if Node_set.mem d.node border then []
    else
      [ fail_cd2 d "decider %a is not on border of %a" Node_id.pp d.node View.pp d.view ]
  in
  connected @ all_crashed @ borders

let disagree ~value_equal (d : 'v Runner.decision) (dq : 'v Runner.decision) acc =
  if Node_set.equal dq.view d.view && value_equal dq.value d.value then acc
  else
    violate
      ~events:(cite [ d.event; dq.event ])
      CD5_uniform_border_agreement "%a decided %a but %a on its border decided %a"
      Node_id.pp d.node View.pp d.view Node_id.pp dq.node View.pp dq.view
    :: acc

(* Each pair (a decision, a decision of a node on its view's border) is
   compared once, when the later of the two is taken: [d] against the
   decisions already taken on its border, then each earlier decision
   that awaited [d]'s node against [d]. *)
let cd5 ~value_equal decided (d : 'v Runner.decision) border =
  let on_its_border =
    Node_set.fold
      (fun q acc ->
        match Node_map.find_opt q decided.by_node with
        | None -> acc
        | Some dq -> disagree ~value_equal d dq acc)
      border []
  in
  match Node_map.find_opt d.node decided.awaiting with
  | None -> on_its_border
  | Some earlier ->
      List.fold_left (fun acc e -> disagree ~value_equal e d acc) on_its_border earlier

(* One border lookup serves CD2, CD5 and the index. *)
let at_decision ~value_equal s (d : 'v Runner.decision) =
  let border = Graph.border s.graph d.view in
  let decided = s.decisions in
  let violations = cd1 decided d @ cd2 s d border @ cd5 ~value_equal decided d border in
  (violations, record d border decided)

(* The witness events citations draw from: the first [Send] per ordered
   pair (CD3), each node's [Crash] injection and the ARQ [Stall] events
   in log order (CD7).  One scan of the causal log, made only when a
   violation needs a citation: a clean run reads none of it. *)
type citations = {
  first_send : int Node_id.Tbl.t Node_id.Tbl.t;
  crash_ev : int Node_id.Tbl.t;
  stall_evs : (Node_id.t * Node_id.t * int) list;
}

let citations obs =
  let first_send = Node_id.Tbl.create 16 and crash_ev = Node_id.Tbl.create 16 in
  let stall_evs = ref [] in
  for seq = 0 to Obs.Log.length obs - 1 do
    match Obs.Log.kind obs seq with
    | Obs.Event.Send { dst; _ } ->
        let row = Node_id.row first_send (Obs.Log.node obs seq) in
        if not (Node_id.Tbl.mem row dst) then Node_id.Tbl.add row dst seq
    | Obs.Event.Crash ->
        let p = Obs.Log.node obs seq in
        if not (Node_id.Tbl.mem crash_ev p) then Node_id.Tbl.add crash_ev p seq
    | Obs.Event.Stall { dst } ->
        stall_evs := (Obs.Log.node obs seq, dst, seq) :: !stall_evs
    | _ -> ()
  done;
  { first_send; crash_ev; stall_evs = List.rev !stall_evs }

let cd3 s ~citations =
  let envelopes = Fault_geometry.communication_envelope (Lazy.force s.geometry) in
  List.filter_map
    (fun (src, dst) ->
      let covered =
        List.exists (fun env -> Node_set.mem src env && Node_set.mem dst env) envelopes
      in
      if covered then None
      else
        let (lazy { first_send; _ }) = citations in
        let events =
          cite
            [
              Option.bind (Node_id.Tbl.find_opt first_send src) (fun row ->
                  Node_id.Tbl.find_opt row dst);
            ]
        in
        Some
          (violate ~events CD3_locality
             "message %a -> %a outside every faulty domain's envelope" Node_id.pp src
             Node_id.pp dst))
    (Lazy.force s.pairs)

let cd4 s in_order =
  if not s.quiescent then
    [
      violate CD4_border_termination
        "run not quiescent (event cap hit): border termination unverifiable";
    ]
  else
    List.concat_map
      (fun (d : 'v Runner.decision) ->
        Node_set.fold
          (fun q acc ->
            if correct s q && not (Node_map.mem q s.decisions.by_node) then
              violate
                ~events:(cite [ d.event ])
                CD4_border_termination
                "correct node %a on border of decided view %a never decided" Node_id.pp q
                View.pp d.view
              :: acc
            else acc)
          (Graph.border s.graph d.view) [])
      in_order

let cd6 s in_order =
  let correct_decisions =
    List.filter (fun (d : 'v Runner.decision) -> correct s d.node) in_order
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

let cd7 s ~citations =
  let clusters = Fault_geometry.cluster_borders (Lazy.force s.geometry) in
  if clusters = [] then []
  else if not s.quiescent then
    [ violate CD7_progress "run not quiescent (event cap hit): progress unverifiable" ]
  else
    List.filter_map
      (fun border ->
        let decided p = correct s p && Node_map.mem p s.decisions.by_node in
        if Node_set.exists decided border then None
        else
          (* Cite the crash injections this cluster is about (crashed
             neighbours of the border) and any ARQ stalls confined to
             the border — the inputs a progress failure traces back
             to. *)
          let (lazy { crash_ev; stall_evs; _ }) = citations in
          let crashes =
            Node_set.fold
              (fun p acc ->
                Node_set.fold
                  (fun q acc ->
                    if not (correct s q) then
                      match Node_id.Tbl.find_opt crash_ev q with
                      | Some seq -> seq :: acc
                      | None -> acc
                    else acc)
                  (Graph.neighbours s.graph p) acc)
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

let at_end s =
  let citations = lazy (citations s.obs) in
  let in_order = List.rev s.decisions.latest_first in
  cd3 s ~citations @ cd4 s in_order @ cd6 s in_order @ cd7 s ~citations

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
  let start =
    {
      graph;
      crash_time = crash_times outcome.crashes;
      decisions = no_decisions;
      crashed = outcome.crashed;
      pairs = Lazy.from_val (Cliffedge_net.Stats.pairs outcome.stats);
      quiescent = outcome.quiescent;
      geometry = Lazy.from_val geometry;
      obs = outcome.obs;
    }
  in
  let found = ref [] in
  let summary =
    List.fold_left
      (fun s d ->
        let violations, decisions = at_decision ~value_equal s d in
        found := List.rev_append violations !found;
        { s with decisions })
      start outcome.decisions
  in
  (* By property, CD1 first, as the names sort; the sort is stable, so
     each property's violations stay in the order found. *)
  let by_property a b =
    String.compare (property_name a.property) (property_name b.property)
  in
  let violations =
    List.stable_sort by_property (List.rev_append !found (at_end summary))
  in
  {
    violations;
    geometry;
    decisions_checked = List.length outcome.decisions;
    pairs_checked = List.length (Lazy.force summary.pairs);
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
