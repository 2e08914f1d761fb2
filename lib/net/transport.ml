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

type channel =
  | Reliable
  | Raw_faulty of Faults.t
  | Arq_over_faulty of Faults.t * policy

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { cum : int }

(* Go-back-N state of the ordered channel [src -> dst], created at its
   first frame.  Sender side, at [src]: [unacked] holds (seq, units,
   payload) oldest first; [retries] counts consecutive timer expiries
   with no cumulative-ack progress.  Receiver side, at [dst]:
   [expected] is the next in-order sequence number; frames beyond it
   wait in [buffer] until the gap fills. *)
type 'a link = {
  mutable next_seq : int;
  mutable unacked : (int * int * 'a) list;
  mutable timer : Engine.handle option;
  mutable retries : int;
  mutable cur_rto : float;
  mutable stalled : bool;
  mutable expected : int;
  buffer : (int, 'a) Hashtbl.t;
}

type 'a t = {
  engine : Engine.t;
  net : 'a frame Network.t;
  policy : policy;
  (* Source row -> destination -> link, so a crash reaches the crashed
     node's own links through its row. *)
  links : 'a link Node_id.Tbl.t Node_id.Tbl.t;
  mutable deliver : (src:Node_id.t -> dst:Node_id.t -> 'a -> unit) option;
  obs : Obs.Log.t;
}

let observe t ~node kind =
  ignore (Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node kind)

let link t ~src ~dst =
  let row = Node_id.row t.links src in
  match Node_id.Tbl.find row dst with
  | c -> c
  | exception Not_found ->
      let c =
        {
          next_seq = 0;
          unacked = [];
          timer = None;
          retries = 0;
          cur_rto = t.policy.rto;
          stalled = false;
          expected = 0;
          buffer = Hashtbl.create 8;
        }
      in
      Node_id.Tbl.add row dst c;
      c

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
  let r = link t ~src ~dst in
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
  match Node_id.Tbl.find (Node_id.Tbl.find t.links dst) src with
  | exception Not_found -> ()
  | s ->
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
      links = Node_id.Tbl.create 16;
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
    let s = link t ~src ~dst in
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

let crash t p =
  match Node_id.Tbl.find t.links p with
  | exception Not_found -> ()
  | row ->
      Node_id.Tbl.iter
        (fun _ s ->
          cancel_timer t s;
          s.unacked <- [])
        row

let flush_time t ~src ~dst =
  let base = Network.flush_time t.net ~src ~dst in
  match Node_id.Tbl.find (Node_id.Tbl.find t.links src) dst with
  | s
    when (not s.stalled)
         && (match s.unacked with [] -> false | _ :: _ -> true)
         && not (Network.is_crashed t.net src) ->
      (* Live sender with an open window: retransmissions may still be
         scheduled, so the channel has no finite flush bound.  The
         failure detector never hits this branch — it only queries
         channels whose sender already crashed (see Substrate). *)
      infinity
  | _ | (exception Not_found) -> base

let stats t = Network.stats t.net
