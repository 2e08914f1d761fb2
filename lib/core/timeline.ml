open Cliffedge_graph
module Obs = Cliffedge_obs

let pp ?(names = Node_id.Names.empty) ~value_to_string ppf (outcome : 'v Runner.outcome) =
  let pp_view = Node_set.pp_named names in
  (* [decisions] is sorted by (time, [Decide] seq), i.e. in log order,
     so each [Decide] event's decision is the next one in the list. *)
  let pending = ref outcome.decisions in
  let decided () =
    match !pending with
    | (d : 'v Runner.decision) :: rest ->
        pending := rest;
        value_to_string d.value
    | [] -> invalid_arg "Timeline.pp: a Decide event has no decision in the outcome"
  in
  Obs.Log.iter outcome.obs (fun e ->
      let line fmt =
        Format.fprintf ppf "t=%9.2f  %-10s " e.Obs.Event.time
          (Format.asprintf "%a" (Node_id.Names.pp names) e.Obs.Event.node);
        Format.kfprintf (fun ppf -> Format.fprintf ppf "@.") ppf fmt
      in
      match (e.Obs.Event.kind, e.Obs.Event.instance) with
      | Obs.Event.Crash, _ -> line "CRASHES"
      | Obs.Event.Propose, Some v -> line "proposes %a" pp_view v
      | Obs.Event.Reject, Some v -> line "rejects %a" pp_view v
      | Obs.Event.Abort, Some v -> line "abandons attempt on %a" pp_view v
      | Obs.Event.Round { round }, Some v -> line "enters round %d of %a" round pp_view v
      | Obs.Event.Early_outcome { success }, Some v ->
          line "broadcasts %s outcome for %a"
            (if success then "successful" else "failed")
            pp_view v
      | Obs.Event.Decide, Some v -> line "DECIDES %S on %a" (decided ()) pp_view v
      | _ -> ())

let decision_latency (outcome : 'v Runner.outcome) =
  let crash_time p =
    List.fold_left
      (fun acc (t, q) -> if Node_id.equal p q && t < acc then t else acc)
      infinity outcome.crashes
  in
  List.map
    (fun view ->
      let last_crash =
        Node_set.fold (fun p acc -> Float.max acc (crash_time p)) view neg_infinity
      in
      let first_decision =
        List.fold_left
          (fun acc (d : 'v Runner.decision) ->
            if Node_set.equal d.view view then Float.min acc d.time else acc)
          infinity outcome.decisions
      in
      (view, first_decision -. last_crash))
    (Runner.decided_views outcome)
