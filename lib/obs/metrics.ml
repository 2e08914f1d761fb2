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
   - decide latency: first [Propose] per instance, closed by each
     [Decide] of that instance;
   - round latency: last round-chain event ([Propose] or [Round]) per
     instance and node, advanced by the next [Round];
   - retransmit delay: last [Send] per (src, dst) channel (the source's
     row, then the destination), read by [Retransmit] on the same
     channel;
   - FD lag: the [Suspect] -> [Crash] causal edge, resolved through the
     log itself (false suspicions have no parent and contribute
     nothing).
   The tables hold sequence ids, not boxed times, and the pass reads
   each event's fields in place rather than building the [Event.t]
   records {!Log.iter} would. *)
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
  let since first seq = Log.time log seq -. Log.time log first in
  let proposed : int Node_set.Tbl.t = Node_set.Tbl.create 16 in
  let round_chain : int Node_id.Tbl.t Node_set.Tbl.t = Node_set.Tbl.create 16 in
  let chain view =
    match Node_set.Tbl.find_opt round_chain view with
    | Some nodes -> nodes
    | None ->
        let nodes = Node_id.Tbl.create 8 in
        Node_set.Tbl.replace round_chain view nodes;
        nodes
  in
  let last_send : int Node_id.Tbl.t Node_id.Tbl.t = Node_id.Tbl.create 16 in
  (* Sends not yet filed in [last_send], newest first: the table is
     filled only when a [Retransmit] reads it, so a log without one
     (every run off the ARQ) builds no per-sender rows. *)
  let unfiled = ref [] in
  let file_sends () =
    List.iter
      (fun (src, dst, seq) -> Node_id.Tbl.replace (Node_id.row last_send src) dst seq)
      (List.rev !unfiled);
    unfiled := []
  in
  for seq = 0 to Log.length log - 1 do
    match Log.kind log seq with
    | Event.Propose -> (
        match Log.instance log seq with
        | None -> ()
        | Some view ->
            if not (Node_set.Tbl.mem proposed view) then
              Node_set.Tbl.replace proposed view seq;
            Node_id.Tbl.replace (chain view) (Log.node log seq) seq)
    | Event.Round _ -> (
        match Log.instance log seq with
        | None -> ()
        | Some view ->
            let nodes = chain view and node = Log.node log seq in
            (match Node_id.Tbl.find_opt nodes node with
            | Some prev -> Hist.add t.round_latency (since prev seq)
            | None -> ());
            Node_id.Tbl.replace nodes node seq)
    | Event.Decide -> (
        match Log.instance log seq with
        | None -> ()
        | Some view -> (
            match Node_set.Tbl.find_opt proposed view with
            | Some start -> Hist.add t.decide_latency (since start seq)
            | None -> ()))
    | Event.Send { dst; _ } -> unfiled := (Log.node log seq, dst, seq) :: !unfiled
    | Event.Retransmit { dst; _ } -> (
        file_sends ();
        match Node_id.Tbl.find_opt last_send (Log.node log seq) with
        | Some row -> (
            match Node_id.Tbl.find_opt row dst with
            | Some sent -> Hist.add t.retransmit_delay (since sent seq)
            | None -> ())
        | None -> ())
    | Event.Suspect _ -> (
        match Log.parent log seq with
        | None -> ()
        | Some p -> (
            match Log.kind log p with
            | Event.Crash -> Hist.add t.fd_lag (since p seq)
            | _ -> ()))
    | Event.Crash | Event.Deliver _ | Event.Stall _ | Event.Reject | Event.Abort
    | Event.Early_outcome _ ->
        ()
  done;
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
