open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng

(* Delivering before [on_deliver] installed a handler is a harness
   wiring bug, not a protocol condition: named so callers can tell it
   apart from any other [Failure]. *)
exception No_handler of string

(* One ordered channel is a {!Stats.channel}, created at its first send
   and shared with the message counts.  [flush] is the max scheduled
   delivery time over its messages: the FIFO floor on the reliable path
   and, since faulty scheduling is not monotone, a running max kept for
   [flush_time] on the faulty path.  [floor] and [recent] are the fault
   plan's reordering bookkeeping: [floor] is the max scheduled delivery
   time over every message on the channel except the most recent
   [reorder] ones ([recent], most recent first), so clamping a new
   delivery above [floor] lets it overtake at most [reorder]
   predecessors — and exactly restores FIFO when the bound is 0. *)

type 'a t = {
  engine : Engine.t;
  rng : Prng.t;
  latency : Latency.t;
  faults : Faults.t option;
  stats : Stats.t;
  crashed : int Node_id.Tbl.t;
  mutable deliver : (src:Node_id.t -> dst:Node_id.t -> 'a -> unit) option;
}

let create ?faults ~crashed ~engine ~rng ~latency () =
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
    crashed;
    deliver = None;
  }

let on_deliver t handler = t.deliver <- Some handler

let is_crashed t p = Node_id.Tbl.mem t.crashed p

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

(* One physical copy under the fault plan.  [jitter] marks duplicate
   copies: a dup is the same message again, so it neither respects nor
   tightens the reordering floor (duplication is inherently
   out-of-order). *)
let schedule_faulty_copy t ~bound ~jitter ~src ~dst (c : Stats.channel) payload =
  let earliest = Engine.now t.engine +. Latency.sample t.latency t.rng in
  let time =
    if jitter then earliest
    else begin
      let time = Float.max earliest (c.floor +. 1e-9) in
      c.recent <- time :: c.recent;
      (if List.length c.recent > bound then
         match List.rev c.recent with
         | oldest :: kept_rev ->
             c.recent <- List.rev kept_rev;
             if oldest > c.floor then c.floor <- oldest
         | [] -> ());
      time
    end
  in
  if time > c.flush then c.flush <- time;
  schedule_delivery t ~src ~dst ~time payload

let send t ?(units = 1) ~src ~dst payload =
  if not (is_crashed t src) then begin
    let c = Stats.send_channel t.stats ~src ~dst ~units in
    match t.faults with
    | None ->
        let earliest = Engine.now t.engine +. Latency.sample t.latency t.rng in
        (* A hair after the previous delivery keeps distinct deterministic
           slots for same-channel messages. *)
        let time = Float.max earliest (c.flush +. 1e-9) in
        c.flush <- time;
        schedule_delivery t ~src ~dst ~time payload
    | Some plan ->
        let now = Engine.now t.engine in
        if Faults.cut_active plan ~src ~dst ~time:now then
          Stats.record_fault_drop t.stats
        else if plan.Faults.drop > 0.0 && Prng.float t.rng 1.0 < plan.Faults.drop then
          Stats.record_fault_drop t.stats
        else begin
          let bound = plan.Faults.reorder in
          schedule_faulty_copy t ~bound ~jitter:false ~src ~dst c payload;
          if plan.Faults.dup > 0.0 && Prng.float t.rng 1.0 < plan.Faults.dup then begin
            Stats.record_duplicate t.stats;
            schedule_faulty_copy t ~bound ~jitter:true ~src ~dst c payload
          end
        end
  end

let flush_time t ~src ~dst =
  match Stats.find_channel t.stats ~src ~dst with
  | c -> c.Stats.flush
  | exception Not_found -> neg_infinity

let stats t = t.stats
