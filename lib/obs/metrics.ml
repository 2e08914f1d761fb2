open Cliffedge_graph

type t = {
  events : int;
  decide_latency : Hist.t;
  round_latency : Hist.t;
  retransmit_delay : Hist.t;
  fd_lag : Hist.t;
}

(* All four histograms come out of one pass over the log, keyed on the
   small amount of state each latency needs:
   - decide latency: first [Propose] time per instance, closed by each
     [Decide] of that instance;
   - round latency: last round-chain event ([Propose] or [Round]) per
     instance and node, advanced by the next [Round];
   - retransmit delay: last [Send] time per (src, dst) channel, read by
     [Retransmit] on the same channel;
   - FD lag: the [Suspect] -> [Crash] causal edge, resolved through the
     log itself (false suspicions have no parent and contribute
     nothing). *)
let of_log log =
  let t =
    {
      events = Log.length log;
      decide_latency = Hist.create ();
      round_latency = Hist.create ();
      retransmit_delay = Hist.create ();
      fd_lag = Hist.create ();
    }
  in
  let proposed : float Node_set.Tbl.t = Node_set.Tbl.create 16 in
  let round_chain : (int, float) Hashtbl.t Node_set.Tbl.t = Node_set.Tbl.create 16 in
  let chain view =
    match Node_set.Tbl.find_opt round_chain view with
    | Some nodes -> nodes
    | None ->
        let nodes = Hashtbl.create 8 in
        Node_set.Tbl.replace round_chain view nodes;
        nodes
  in
  let last_send : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  Log.iter log (fun e ->
      let node = Node_id.to_int e.Event.node in
      match e.Event.kind with
      | Event.Propose -> (
          match e.Event.instance with
          | None -> ()
          | Some view ->
              if not (Node_set.Tbl.mem proposed view) then
                Node_set.Tbl.replace proposed view e.Event.time;
              Hashtbl.replace (chain view) node e.Event.time)
      | Event.Round _ -> (
          match e.Event.instance with
          | None -> ()
          | Some view ->
              let nodes = chain view in
              (match Hashtbl.find_opt nodes node with
              | Some prev -> Hist.add t.round_latency (e.Event.time -. prev)
              | None -> ());
              Hashtbl.replace nodes node e.Event.time)
      | Event.Decide -> (
          match e.Event.instance with
          | None -> ()
          | Some view -> (
              match Node_set.Tbl.find_opt proposed view with
              | Some start -> Hist.add t.decide_latency (e.Event.time -. start)
              | None -> ()))
      | Event.Send { dst; _ } ->
          Hashtbl.replace last_send (node, Node_id.to_int dst) e.Event.time
      | Event.Retransmit { dst; _ } -> (
          match Hashtbl.find_opt last_send (node, Node_id.to_int dst) with
          | Some sent -> Hist.add t.retransmit_delay (e.Event.time -. sent)
          | None -> ())
      | Event.Suspect _ -> (
          match e.Event.parent with
          | None -> ()
          | Some p -> (
              match Log.find log p with
              | Some { Event.kind = Event.Crash; time; _ } ->
                  Hist.add t.fd_lag (e.Event.time -. time)
              | Some _ | None -> ()))
      | Event.Crash | Event.Deliver _ | Event.Stall _ | Event.Reject
      | Event.Abort | Event.Early_outcome _ ->
          ());
  t

let to_json t =
  let module Json = Cliffedge_report.Json in
  Json.Obj
    [
      ("events", Json.Int t.events);
      ("decide_latency", Hist.to_json t.decide_latency);
      ("round_latency", Hist.to_json t.round_latency);
      ("retransmit_delay", Hist.to_json t.retransmit_delay);
      ("fd_lag", Hist.to_json t.fd_lag);
    ]

let pp ppf t =
  Format.fprintf ppf "events           %d@." t.events;
  Format.fprintf ppf "decide latency   %a@." Hist.pp t.decide_latency;
  Format.fprintf ppf "round latency    %a@." Hist.pp t.round_latency;
  Format.fprintf ppf "retransmit delay %a@." Hist.pp t.retransmit_delay;
  Format.fprintf ppf "fd lag           %a@." Hist.pp t.fd_lag
