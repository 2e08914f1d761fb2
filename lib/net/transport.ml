open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Obs = Cliffedge_obs

type policy = {
  rto : float;
  backoff : float;
  rto_cap : float;
  max_retries : int;
}

let default_policy = { rto = 25.0; backoff = 2.0; rto_cap = 200.0; max_retries = 30 }

let validate_policy p =
  if not (Float.is_finite p.rto && p.rto > 0.0) then
    Error (Printf.sprintf "arq policy: rto must be finite and positive, got %g" p.rto)
  else if not (Float.is_finite p.backoff && p.backoff >= 1.0) then
    Error (Printf.sprintf "arq policy: backoff must be >= 1, got %g" p.backoff)
  else if not (Float.is_finite p.rto_cap && p.rto_cap >= p.rto) then
    Error
      (Printf.sprintf "arq policy: rto cap must be finite and >= rto, got %g" p.rto_cap)
  else if p.max_retries < 0 then
    Error
      (Printf.sprintf "arq policy: max retries must be non-negative, got %d"
         p.max_retries)
  else Ok p

type channel =
  | Reliable
  | Raw_faulty of Faults.t
  | Arq_over_faulty of Faults.t * policy

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { cum : int }

(* Go-back-N sender side of one ordered channel.  [unacked] holds
   (seq, units, payload) oldest first; [retries] counts consecutive
   timer expiries with no cumulative-ack progress. *)
type 'a sender = {
  mutable next_seq : int;
  mutable unacked : (int * int * 'a) list;
  mutable timer : Engine.handle option;
  mutable retries : int;
  mutable cur_rto : float;
  mutable stalled : bool;
}

(* Receiver side: [expected] is the next in-order sequence number;
   frames beyond it wait in [buffer] until the gap fills. *)
type 'a receiver = {
  mutable expected : int;
  buffer : (int, 'a) Hashtbl.t;
}

type 'a t = {
  engine : Engine.t;
  net : 'a frame Network.t;
  policy : policy;
  senders : (int * int, 'a sender) Hashtbl.t;
  receivers : (int * int, 'a receiver) Hashtbl.t;
  mutable deliver : (src:Node_id.t -> dst:Node_id.t -> 'a -> unit) option;
  obs : Obs.Log.t;
}

let observe t ~node kind =
  ignore (Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node kind)

let sender t key =
  match Hashtbl.find_opt t.senders key with
  | Some s -> s
  | None ->
      let s =
        {
          next_seq = 0;
          unacked = [];
          timer = None;
          retries = 0;
          cur_rto = t.policy.rto;
          stalled = false;
        }
      in
      Hashtbl.replace t.senders key s;
      s

let receiver t key =
  match Hashtbl.find_opt t.receivers key with
  | Some r -> r
  | None ->
      let r = { expected = 0; buffer = Hashtbl.create 8 } in
      Hashtbl.replace t.receivers key r;
      r

let cancel_timer t s =
  match s.timer with
  | Some h ->
      Engine.cancel t.engine h;
      s.timer <- None
  | None -> ()

(* Timer expiry with no progress: retransmit the whole unacked window
   (go-back-N), back the timeout off, and give up — without stalling —
   when either endpoint has crashed (a dead sender cannot retransmit; a
   dead receiver will never ack, and the failure detector, not the
   transport, is the component that reports crashes).  Only a live pair
   that keeps losing frames, i.e. a partition, exhausts [max_retries]
   and marks the channel stalled. *)
let rec on_timeout t ~src ~dst s =
  s.timer <- None;
  match s.unacked with
  | [] -> ()
  | _ :: _ ->
      if Network.is_crashed t.net src || Network.is_crashed t.net dst then
        s.unacked <- []
      else if s.retries >= t.policy.max_retries then begin
        s.stalled <- true;
        s.unacked <- [];
        observe t ~node:src (Obs.Event.Stall { dst })
      end
      else begin
        observe t ~node:src
          (Obs.Event.Retransmit
             { dst; attempt = s.retries + 1; frames = List.length s.unacked });
        List.iter
          (fun (seq, units, payload) ->
            Stats.record_retransmit (Network.stats t.net);
            Network.send t.net ~units ~src ~dst (Data { seq; payload }))
          s.unacked;
        s.retries <- s.retries + 1;
        s.cur_rto <- Float.min t.policy.rto_cap (s.cur_rto *. t.policy.backoff);
        arm_timer t ~src ~dst s
      end

and arm_timer t ~src ~dst s =
  s.timer <-
    Some
      (Engine.schedule t.engine ~delay:s.cur_rto (fun () ->
           on_timeout t ~src ~dst s))

let deliver_up t ~src ~dst payload =
  match t.deliver with
  | Some handler -> handler ~src ~dst payload
  | None ->
      raise (Network.No_handler "Transport: no delivery handler installed")

(* A data frame for channel [src -> dst] arrived at [dst].  Everything
   at or below the cumulative ack point, and anything already buffered,
   is a duplicate (a retransmission or a network-injected copy).  Every
   receipt is answered with the current cumulative ack so the sender
   learns of progress even when the frame itself was stale. *)
let on_data t ~src ~dst ~seq payload =
  let key = (Node_id.to_int src, Node_id.to_int dst) in
  let r = receiver t key in
  if seq < r.expected || Hashtbl.mem r.buffer seq then
    Stats.record_dedup (Network.stats t.net)
  else begin
    Hashtbl.replace r.buffer seq payload;
    let rec drain () =
      match Hashtbl.find_opt r.buffer r.expected with
      | Some payload ->
          Hashtbl.remove r.buffer r.expected;
          r.expected <- r.expected + 1;
          deliver_up t ~src ~dst payload;
          drain ()
      | None -> ()
    in
    drain ()
  end;
  Network.send t.net ~units:0 ~src:dst ~dst:src (Ack { cum = r.expected - 1 })

(* A cumulative ack from [src] acknowledges the reverse channel
   [dst -> src].  Progress resets the backoff; an empty window parks the
   timer. *)
let on_ack t ~src ~dst ~cum =
  let key = (Node_id.to_int dst, Node_id.to_int src) in
  match Hashtbl.find_opt t.senders key with
  | None -> ()
  | Some s ->
      let before = List.length s.unacked in
      s.unacked <- List.filter (fun (seq, _, _) -> seq > cum) s.unacked;
      if List.length s.unacked < before then begin
        s.retries <- 0;
        s.cur_rto <- t.policy.rto;
        cancel_timer t s;
        match s.unacked with
        | [] -> ()
        | _ :: _ -> arm_timer t ~src:dst ~dst:src s
      end

let create ?(policy = default_policy) ~obs ~engine ~network () =
  let t =
    {
      engine;
      net = network;
      policy;
      senders = Hashtbl.create 64;
      receivers = Hashtbl.create 64;
      deliver = None;
      obs;
    }
  in
  Network.on_deliver network (fun ~src ~dst frame ->
      match frame with
      | Data { seq; payload } -> on_data t ~src ~dst ~seq payload
      | Ack { cum } -> on_ack t ~src ~dst ~cum);
  t

let on_deliver t handler = t.deliver <- Some handler

let send t ?(units = 1) ~src ~dst payload =
  if not (Network.is_crashed t.net src) then begin
    let key = (Node_id.to_int src, Node_id.to_int dst) in
    let s = sender t key in
    if not s.stalled then begin
      let seq = s.next_seq in
      s.next_seq <- seq + 1;
      s.unacked <- s.unacked @ [ (seq, units, payload) ];
      Network.send t.net ~units ~src ~dst (Data { seq; payload });
      match s.timer with
      | None -> arm_timer t ~src ~dst s
      | Some _ -> ()
    end
  end

let multicast t ?units ~src ~dsts payload =
  Node_set.iter (fun dst -> send t ?units ~src ~dst payload) dsts

let crash t p =
  Network.crash t.net p;
  let pi = Node_id.to_int p in
  Hashtbl.iter
    (fun (src, _) s ->
      if Int.equal src pi then begin
        cancel_timer t s;
        s.unacked <- []
      end)
    t.senders

let flush_time t ~src ~dst =
  let base = Network.flush_time t.net ~src ~dst in
  match Hashtbl.find_opt t.senders (Node_id.to_int src, Node_id.to_int dst) with
  | Some s
    when (not s.stalled)
         && (match s.unacked with [] -> false | _ :: _ -> true)
         && not (Network.is_crashed t.net src) ->
      (* Live sender with an open window: retransmissions may still be
         scheduled, so the channel has no finite flush bound.  The
         failure detector never hits this branch — it only queries
         channels whose sender already crashed (see Substrate). *)
      infinity
  | Some _ | None -> base

let stats t = Network.stats t.net
