open Cliffedge_graph
module Json = Cliffedge_report.Json

let pp ppf events =
  List.iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) events

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)

(* One object per line, keys in a fixed order, times at full %.6f
   precision — the determinism suite byte-compares this output. *)

let extra_fields kind =
  match kind with
  | Event.Crash | Event.Propose | Event.Reject | Event.Abort | Event.Decide -> []
  | Event.Suspect { target } -> [ ("target", string_of_int (Node_id.to_int target)) ]
  | Event.Send { dst; units } ->
      [
        ("dst", string_of_int (Node_id.to_int dst));
        ("units", string_of_int units);
      ]
  | Event.Deliver { src } -> [ ("src", string_of_int (Node_id.to_int src)) ]
  | Event.Retransmit { dst; attempt; frames } ->
      [
        ("dst", string_of_int (Node_id.to_int dst));
        ("attempt", string_of_int attempt);
        ("frames", string_of_int frames);
      ]
  | Event.Stall { dst } -> [ ("dst", string_of_int (Node_id.to_int dst)) ]
  | Event.Round { round } -> [ ("round", string_of_int round) ]
  | Event.Early_outcome { success } -> [ ("success", string_of_bool success) ]

let jsonl events =
  let buffer = Buffer.create 4096 in
  List.iter
    (fun e ->
      Printf.bprintf buffer "{\"seq\":%d,\"time\":%.6f,\"node\":%d,\"kind\":%S"
        e.Event.seq e.Event.time
        (Node_id.to_int e.Event.node)
        (Event.kind_name e.Event.kind);
      (match e.Event.instance with
      | Some view ->
          Printf.bprintf buffer ",\"instance\":%S" (Event.instance_of_view view)
      | None -> ());
      (match e.Event.parent with
      | Some p -> Printf.bprintf buffer ",\"parent\":%d" p
      | None -> ());
      List.iter
        (fun (k, v) -> Printf.bprintf buffer ",%S:%s" k v)
        (extra_fields e.Event.kind);
      Buffer.add_string buffer "}\n")
    events;
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Chrome trace_event                                                  *)

(* Each node is a thread of one process; events are thread-scoped
   instants and causal parent edges become flow ("s"/"f") pairs, so
   Perfetto draws send->deliver and proposal->round->decide arrows.
   Flow pairs use the child's sequence id as the flow id and are only
   emitted when both endpoints survived filtering. *)

let chrome events =
  let tids =
    List.sort_uniq Int.compare
      (List.map (fun e -> Node_id.to_int e.Event.node) events)
  in
  let present = Hashtbl.create (List.length events) in
  List.iter (fun e -> Hashtbl.replace present e.Event.seq e) events;
  let metadata =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ( "args",
              Json.Obj
                [ ("name", Json.String (Node_id.to_string (Node_id.of_int tid))) ] );
          ])
      tids
  in
  let instant e =
    let args =
      List.concat
        [
          [ ("seq", Json.Int e.Event.seq) ];
          (match e.Event.instance with
          | Some view -> [ ("instance", Json.String (Event.instance_of_view view)) ]
          | None -> []);
          (match e.Event.parent with
          | Some p -> [ ("parent", Json.Int p) ]
          | None -> []);
          List.map
            (fun (k, v) -> (k, Json.String v))
            (extra_fields e.Event.kind);
          [ ("detail", Json.String (Format.asprintf "%a" Event.pp_kind e.Event.kind)) ];
        ]
    in
    Json.Obj
      [
        ("name", Json.String (Event.kind_name e.Event.kind));
        ("cat", Json.String (Event.category e.Event.kind));
        ("ph", Json.String "i");
        ("s", Json.String "t");
        ("pid", Json.Int 1);
        ("tid", Json.Int (Node_id.to_int e.Event.node));
        ("ts", Json.Float (e.Event.time *. 1000.0));
        ("args", Json.Obj args);
      ]
  in
  let flow e =
    match e.Event.parent with
    | None -> []
    | Some p -> (
        match Hashtbl.find_opt present p with
        | None -> []
        | Some parent ->
            let common ph extra ev =
              Json.Obj
                ([
                   ("name", Json.String "causal");
                   ("cat", Json.String "flow");
                   ("ph", Json.String ph);
                   ("id", Json.Int e.Event.seq);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int (Node_id.to_int ev.Event.node));
                   ("ts", Json.Float (ev.Event.time *. 1000.0));
                 ]
                @ extra)
            in
            [
              common "s" [] parent;
              common "f" [ ("bp", Json.String "e") ] e;
            ])
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ( "traceEvents",
        Json.List
          (metadata
          @ List.concat_map (fun e -> instant e :: flow e) events) );
    ]
