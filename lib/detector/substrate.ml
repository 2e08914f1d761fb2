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
  (* Seq of each node's [Crash] event, so [Suspect] notifications can
     parent to the fault injection they detect. *)
  crash_seq : (int, int) Hashtbl.t;
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
  let conduit, flush =
    match channel with
    | Transport.Reliable ->
        let network = Network.create ~engine ~rng:net_rng ~latency:message_latency () in
        ( Direct network,
          fun ~src ~dst -> Network.flush_time network ~src ~dst )
    | Transport.Raw_faulty faults ->
        let network =
          Network.create ~faults ~engine ~rng:net_rng ~latency:message_latency ()
        in
        ( Direct network,
          fun ~src ~dst -> Network.flush_time network ~src ~dst )
    | Transport.Arq_over_faulty (faults, policy) ->
        let network =
          Network.create ~faults ~engine ~rng:net_rng ~latency:message_latency ()
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
    Failure_detector.create ~engine ~rng:fd_rng ~latency:detection_latency
      ?channel_floor ()
  in
  { engine; conduit; detector; obs; crash_seq = Hashtbl.create 16; batch = None;
    geometry; crash_hook = ignore }

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

let send t ?(units = 1) ~src ~dst msg =
  (* The conduit drops sends from crashed sources anyway (before any
     accounting), so guarding here only keeps phantom [Send] events out
     of the log; the detector and the conduit crash in the same
     injection thunk, making the two crash states interchangeable. *)
  if not (Failure_detector.is_crashed t.detector src) then begin
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

let batched t f =
  match t.batch with
  | Some _ ->
      (* Nested scope: merge into the outer batch. *)
      f ()
  | None ->
      t.batch <- Some [];
      Fun.protect f ~finally:(fun () ->
          (* Flush in first-touch order, one envelope per (src,dst) with
             the units of all its items — one latency draw / ARQ frame
             per pair per scope. *)
          let cells = match t.batch with Some c -> List.rev c | None -> [] in
          t.batch <- None;
          List.iter
            (fun c ->
              dispatch_envelope t ~units:c.b_units ~src:c.b_src ~dst:c.b_dst
                (List.rev c.b_rev))
            cells)

let on_deliver t handler =
  let wrapped ~src ~dst env =
    (* One [Deliver] event per logical send the envelope carries, each
       parented on its own [Send]: batching is invisible to the causal
       log's structure. *)
    List.iter
      (fun item ->
        let seq =
          Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node:dst
            ~parent:item.cause
            (Obs.Event.Deliver { src })
        in
        Obs.Log.with_context t.obs seq (fun () -> handler ~src ~dst item.payload))
      env
  in
  match t.conduit with
  | Direct network -> Network.on_deliver network wrapped
  | Arq transport -> Transport.on_deliver transport wrapped

let on_crash_notification t handler =
  Failure_detector.on_crash_notification t.detector (fun ~observer ~crashed ->
      let parent = Hashtbl.find_opt t.crash_seq (Node_id.to_int crashed) in
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

let crash_node t p =
  match t.conduit with
  | Direct network -> Network.crash network p
  | Arq transport -> Transport.crash transport p

let schedule_crashes t crashes =
  List.iter
    (fun (time, p) ->
      ignore
        (Engine.schedule_at t.engine ~time (fun () ->
             t.crash_hook p;
             let seq =
               Obs.Log.record t.obs ~time:(Engine.now t.engine) ~node:p
                 Obs.Event.Crash
             in
             Hashtbl.replace t.crash_seq (Node_id.to_int p) seq;
             crash_node t p;
             Failure_detector.inject_crash t.detector p;
             Option.iter (fun g -> Incr_geometry.crash g p) t.geometry)))
    crashes

let run ~max_events t = Engine.run ~max_events t.engine
