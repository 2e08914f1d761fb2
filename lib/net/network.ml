open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng

(* Delivering before [on_deliver] installed a handler is a harness
   wiring bug, not a protocol condition: named so callers can tell it
   apart from any other [Failure]. *)
exception No_handler of string

(* Per-ordered-pair reordering bookkeeping (fault mode only).  [floor]
   is the max scheduled delivery time over every message on the channel
   except the most recent [reorder] ones ([recent], most recent first),
   so clamping a new delivery above [floor] lets it overtake at most
   [reorder] predecessors — and exactly restores FIFO when the bound is
   0. *)
type reorder_state = {
  mutable floor : float;
  mutable recent : float list;
}

type 'a t = {
  engine : Engine.t;
  rng : Prng.t;
  latency : Latency.t;
  faults : Faults.t option;
  stats : Stats.t;
  crashed : (int, unit) Hashtbl.t;
  (* Max scheduled delivery time per ordered pair, keyed by
     [Node_id.pair_key] (an immediate int hashes without allocating a
     tuple on every send, collision-free below 2^31).  On the reliable
     path this is also the FIFO floor; on the faulty path scheduling is
     not monotone, so it is maintained as a running max for
     [flush_time]. *)
  last_delivery : (int, float) Hashtbl.t;
  reorder : (int, reorder_state) Hashtbl.t;
  mutable deliver : (src:Node_id.t -> dst:Node_id.t -> 'a -> unit) option;
}

let create ?faults ~engine ~rng ~latency () =
  (* A pass-through plan takes the reliable path, PRNG stream included:
     [Raw_faulty Faults.none] and [Reliable] are the same run. *)
  let faults =
    match faults with
    | Some plan when not (Faults.is_pass_through plan) -> Some plan
    | Some _ | None -> None
  in
  {
    engine;
    rng;
    latency;
    faults;
    stats = Stats.create ();
    crashed = Hashtbl.create 16;
    last_delivery = Hashtbl.create 64;
    reorder = Hashtbl.create 64;
    deliver = None;
  }

let on_deliver t handler = t.deliver <- Some handler

let pack ~src ~dst = Node_id.pair_key src dst

let is_crashed t p = Hashtbl.mem t.crashed (Node_id.to_int p)

let crash t p = Hashtbl.replace t.crashed (Node_id.to_int p) ()

let record_flush t key time =
  let current =
    Option.value ~default:neg_infinity (Hashtbl.find_opt t.last_delivery key)
  in
  if time > current then Hashtbl.replace t.last_delivery key time

let schedule_delivery t ~src ~dst ~time payload =
  ignore
    (Engine.schedule_at t.engine ~time (fun () ->
         if is_crashed t dst then Stats.record_drop t.stats
         else begin
           Stats.record_delivery t.stats;
           match t.deliver with
           | Some handler -> handler ~src ~dst payload
           | None ->
               raise (No_handler "Network: no delivery handler installed")
         end))

let reorder_state t key =
  match Hashtbl.find_opt t.reorder key with
  | Some st -> st
  | None ->
      let st = { floor = neg_infinity; recent = [] } in
      Hashtbl.replace t.reorder key st;
      st

(* One physical copy under the fault plan.  [jitter] marks duplicate
   copies: a dup is the same message again, so it neither respects nor
   tightens the reordering floor (duplication is inherently
   out-of-order). *)
let schedule_faulty_copy t ~bound ~jitter ~src ~dst key payload =
  let earliest = Engine.now t.engine +. Latency.sample t.latency t.rng in
  let time =
    if jitter then earliest
    else begin
      let st = reorder_state t key in
      let time = Float.max earliest (st.floor +. 1e-9) in
      st.recent <- time :: st.recent;
      (if List.length st.recent > bound then
         match List.rev st.recent with
         | oldest :: kept_rev ->
             st.recent <- List.rev kept_rev;
             if oldest > st.floor then st.floor <- oldest
         | [] -> ());
      time
    end
  in
  record_flush t key time;
  schedule_delivery t ~src ~dst ~time payload

let send t ?(units = 1) ~src ~dst payload =
  if not (is_crashed t src) then begin
    Stats.record_send t.stats ~src ~dst ~units;
    let key = pack ~src ~dst in
    match t.faults with
    | None ->
        let earliest = Engine.now t.engine +. Latency.sample t.latency t.rng in
        let fifo_floor =
          Option.value ~default:neg_infinity (Hashtbl.find_opt t.last_delivery key)
        in
        (* A hair after the previous delivery keeps distinct deterministic
           slots for same-channel messages. *)
        let time = Float.max earliest (fifo_floor +. 1e-9) in
        Hashtbl.replace t.last_delivery key time;
        schedule_delivery t ~src ~dst ~time payload
    | Some plan ->
        let now = Engine.now t.engine in
        if Faults.cut_active plan ~src ~dst ~time:now then
          Stats.record_fault_drop t.stats
        else if plan.Faults.drop > 0.0 && Prng.float t.rng 1.0 < plan.Faults.drop then
          Stats.record_fault_drop t.stats
        else begin
          let bound = plan.Faults.reorder in
          schedule_faulty_copy t ~bound ~jitter:false ~src ~dst key payload;
          if plan.Faults.dup > 0.0 && Prng.float t.rng 1.0 < plan.Faults.dup then begin
            Stats.record_duplicate t.stats;
            schedule_faulty_copy t ~bound ~jitter:true ~src ~dst key payload
          end
        end
  end

let flush_time t ~src ~dst =
  Option.value ~default:neg_infinity
    (Hashtbl.find_opt t.last_delivery (pack ~src ~dst))

let stats t = t.stats
