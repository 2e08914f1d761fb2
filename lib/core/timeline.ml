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
  (* The log's field readers, as [Runner.fold_log] reads it: the time
     and node only of the events that print a line. *)
  let log = outcome.obs in
  let line seq fmt =
    Format.fprintf ppf "t=%9.2f  %-10s " (Obs.Log.time log seq)
      (Format.asprintf "%a" (Node_id.Names.pp names) (Obs.Log.node log seq));
    Format.kfprintf (fun ppf -> Format.fprintf ppf "@.") ppf fmt
  in
  for seq = 0 to Obs.Log.length log - 1 do
    match (Obs.Log.kind log seq, Obs.Log.instance log seq) with
    | Obs.Event.Crash, _ -> line seq "CRASHES"
    | Obs.Event.Propose, Some v -> line seq "proposes %a" pp_view v
    | Obs.Event.Reject, Some v -> line seq "rejects %a" pp_view v
    | Obs.Event.Abort, Some v -> line seq "abandons attempt on %a" pp_view v
    | Obs.Event.Round { round }, Some v -> line seq "enters round %d of %a" round pp_view v
    | Obs.Event.Early_outcome { success }, Some v ->
        line seq "broadcasts %s outcome for %a"
          (if success then "successful" else "failed")
          pp_view v
    | Obs.Event.Decide, Some v -> line seq "DECIDES %S on %a" (decided ()) pp_view v
    | _ -> ()
  done

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
