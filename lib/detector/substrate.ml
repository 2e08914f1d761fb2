open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Network = Cliffedge_net.Network
module Transport = Cliffedge_net.Transport
module Obs = Cliffedge_obs

(* Every payload travels wrapped with the sequence id of its [Send]
   event, so the matching [Deliver] can name its exact causal parent —
   the network may lose, duplicate or reorder the envelope, but it
   cannot separate the payload from its provenance. *)
type 'a item = { cause : int; payload : 'a }

(* One wire unit: the items it carries, in send order.  Inside a
   [batched] scope all logical sends to the same destination ride one
   envelope (one latency draw, one ARQ frame); each item keeps its own
   provenance, so the causal log still records every logical
   send/delivery individually.  A bare list rather than a record
   wrapper: the unbatched case builds one envelope per protocol send,
   and the hot-path-alloc audit priced the wrapper at 2 needless minor
   words on every delivery the simulator makes. *)
type 'a envelope = 'a item list

type 'a conduit =
  | Direct of 'a envelope Network.t
  | Arq of 'a envelope Transport.t

(* Per-(src,dst) accumulator of an open [batched] scope. *)
type 'a batch_cell = {
  b_src : Node_id.t;
  b_dst : Node_id.t;
  mutable b_units : int;
  mutable b_rev : 'a item list;
}

type 'a t = {
  engine : Engine.t;
  conduit : 'a conduit;
  detector : Failure_detector.t;
  obs : Obs.Log.t;
  (* The run's one crash record: each crashed node's [Crash] event seq,
     so [Suspect] notifications can parent to the injection they detect. *)
  crashed : int Node_id.Tbl.t;
  (* Cells of the open [batched] scope in reverse first-touch order;
     [None] outside any scope (sends dispatch immediately). *)
  mutable batch : 'a batch_cell list option;
  (* Incremental fault-geometry tracker fed from the same injection
     thunk that crashes the conduit and the detector, so the geometry
     is updated at exactly the simulated instant the crash happens. *)
  geometry : Incr_geometry.t option;
  (* Runs first in every crash-injection thunk, while the node is still
     alive everywhere. *)
  mutable crash_hook : Node_id.t -> unit;
}

let create ?(channel = Transport.Reliable) ?geometry ~seed ~message_latency
    ~detection_latency ~channel_consistent_fd () =
  let engine = Engine.create () in
  let obs = Obs.Log.create () in
  let rng = Prng.create seed in
  let net_rng = Prng.split rng in
  let fd_rng = Prng.split rng in
  let crashed = Node_id.Tbl.create 16 in
  let conduit, flush =
    match channel with
    | Transport.Reliable ->
        let network =
          Network.create ~crashed ~engine ~rng:net_rng ~latency:message_latency ()
        in
        ( Direct network,
          fun ~src ~dst -> Network.flush_time network ~src ~dst )
    | Transport.Raw_faulty faults ->
        let network =
          Network.create ~faults ~crashed ~engine ~rng:net_rng ~latency:message_latency ()
        in
        ( Direct network,
          fun ~src ~dst -> Network.flush_time network ~src ~dst )
    | Transport.Arq_over_faulty (faults, policy) ->
        let network =
          Network.create ~faults ~crashed ~engine ~rng:net_rng ~latency:message_latency ()
        in
        let transport = Transport.create ~policy ~obs ~engine ~network () in
        ( Arq transport,
          fun ~src ~dst -> Transport.flush_time transport ~src ~dst )
  in
  let detector =
    let channel_floor =
      if channel_consistent_fd then
        (* Only queried for an already-crashed [crashed] (see
           [schedule_crashes]), where the ARQ flush bound is finite. *)
        Some (fun ~observer ~crashed -> flush ~src:crashed ~dst:observer)
      else None
    in
    Failure_detector.create ~engine ~rng:fd_rng ~latency:detection_latency ~crashed
      ?channel_floor ()
  in
  { engine; conduit; detector; obs; crashed; batch = None; geometry; crash_hook = ignore }

let dispatch_envelope t ~units ~src ~dst env =
  match t.conduit with
  | Direct network -> Network.send network ~units ~src ~dst env
  | Arq transport -> Transport.send transport ~units ~src ~dst env

(* Top-level recursion: a [List.find_opt] closure capturing [src]/[dst]
   would allocate on every batched send. *)
let rec find_cell cells src dst =
  match cells with
  | [] -> None
  | c :: tl ->
      if Node_id.equal c.b_src src && Node_id.equal c.b_dst dst then Some c
      else find_cell tl src dst

let is_crashed t p = Node_id.Tbl.mem t.crashed p

let send t ?(units = 1) ~src ~dst msg =
  (* The conduit drops sends from crashed sources anyway (before any
     accounting), reading the same crash record, so guarding here only
     keeps phantom [Send] events out of the log. *)
  if not (is_crashed t src) then begin
    let cause =
      Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node:src
        ?parent:(Obs.Log.context t.obs)
        (Obs.Event.Send { dst; units })
    in
    let item = { cause; payload = msg } in
    match t.batch with
    | None -> dispatch_envelope t ~units ~src ~dst [ item ]
    | Some cells -> (
        match find_cell cells src dst with
        | Some c ->
            c.b_units <- c.b_units + units;
            c.b_rev <- item :: c.b_rev
        | None ->
            t.batch <-
              Some ({ b_src = src; b_dst = dst; b_units = units; b_rev = [ item ] } :: cells))
  end

(* Flushes in first-touch order, one envelope per (src,dst) with the
   units of all its items: one latency draw / ARQ frame per pair per
   scope. *)
let rec dispatch_cells t = function
  | [] -> ()
  | c :: rest ->
      dispatch_envelope t ~units:c.b_units ~src:c.b_src ~dst:c.b_dst (List.rev c.b_rev);
      dispatch_cells t rest

let close_batch t =
  let cells = match t.batch with Some c -> List.rev c | None -> [] in
  t.batch <- None;
  dispatch_cells t cells

(* Plain save-and-restore code rather than [Fun.protect]: no closure
   per scope, and the batch is still flushed when [f] raises. *)
let batched t f =
  match t.batch with
  | Some _ ->
      (* Nested scope: merge into the outer batch. *)
      f ()
  | None -> (
      t.batch <- Some [];
      match f () with
      | result ->
          close_batch t;
          result
      | exception e ->
          close_batch t;
          raise e)

(* One [Deliver] event per logical send the envelope carries, each
   parented on its own [Send]: batching is invisible to the causal log's
   structure.  A recursive walk, not [List.iter], so delivering an
   envelope allocates no closure. *)
let rec deliver_items t handler ~src ~dst = function
  | [] -> ()
  | item :: rest ->
      let seq =
        Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node:dst ~parent:item.cause
          (Obs.Event.Deliver { src })
      in
      Obs.Log.with_context t.obs seq (fun () -> handler ~src ~dst item.payload);
      deliver_items t handler ~src ~dst rest

let on_deliver t handler =
  let wrapped ~src ~dst env = deliver_items t handler ~src ~dst env in
  match t.conduit with
  | Direct network -> Network.on_deliver network wrapped
  | Arq transport -> Transport.on_deliver transport wrapped

let on_crash_notification t handler =
  Failure_detector.on_crash_notification t.detector (fun ~observer ~crashed ->
      let parent = Node_id.Tbl.find_opt t.crashed crashed in
      let seq =
        Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node:observer ?parent
          (Obs.Event.Suspect { target = crashed })
      in
      Obs.Log.with_context t.obs seq (fun () -> handler ~observer ~crashed))

let before_crash t handler = t.crash_hook <- handler

let stats t =
  match t.conduit with
  | Direct network -> Network.stats network
  | Arq transport -> Transport.stats transport

let crashed_nodes t =
  Node_set.of_list (Node_id.Tbl.fold (fun p _ acc -> p :: acc) t.crashed [])

let schedule_crashes t crashes =
  (* A node crashes once: a second entry would log a second [Crash] of a
     dead node and parent later suspicions on it. *)
  let seen = Node_id.Tbl.create 16 in
  List.iter
    (fun (_, p) ->
      if Node_id.Tbl.mem seen p then
        invalid_arg
          (Format.asprintf "Substrate.schedule_crashes: node %a is scheduled to crash twice"
             Node_id.pp p);
      Node_id.Tbl.add seen p ())
    crashes;
  List.iter
    (fun (time, p) ->
      ignore
        (Engine.schedule_at t.engine ~time (fun () ->
             t.crash_hook p;
             let seq =
               Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node:p
                 Obs.Event.Crash
             in
             Node_id.Tbl.add t.crashed p seq;
             (match t.conduit with
             | Direct _ -> ()
             | Arq transport -> Transport.crash transport p);
             Failure_detector.inject_crash t.detector p;
             Option.iter (fun g -> Incr_geometry.crash g p) t.geometry)))
    crashes

let run ~max_events t = Engine.run ~max_events t.engine
