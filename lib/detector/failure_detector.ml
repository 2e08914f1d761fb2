open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Latency = Cliffedge_net.Latency

(* Detector state is kept only for the nodes a run activates, keyed
   by id in hash tables, so its cost follows the crashed region's
   vicinity rather than the largest id in the graph.  Crash membership
   is not the detector's own: it reads the run's crash record, which
   the caller writes before [inject_crash].

   There is deliberately no observer-indexed-by-target inverse table:
   registration runs once per (node, neighbour) pair — the bulk of a
   quiescent run's detector traffic — while crashes are rare, so
   [inject_crash] recovers the observers by walking the ids that hold a
   subscription row, in ascending order (the notification order
   iterating an inverse set would give). *)
type t = {
  engine : Engine.t;
  rng : Prng.t;
  latency : Latency.t;
  (* observer -> targets already subscribed (dedup; a row keeps its
     targets after notification so a pair fires at most once) *)
  subscriptions : Node_set.t Node_id.Tbl.t;
  (* observer -> targets whose subscription was consumed early by a
     false suspicion (so a later genuine crash must not re-notify).
     Empty unless suspicions are injected. *)
  consumed : Node_set.t Node_id.Tbl.t;
  (* ids holding a subscription row: the [inject_crash] walk *)
  mutable observers : Node_set.t;
  crashed : int Node_id.Tbl.t;
  channel_floor : (observer:Node_id.t -> crashed:Node_id.t -> float) option;
  mutable notify : (observer:Node_id.t -> crashed:Node_id.t -> unit) option;
}

let create ~engine ~rng ~latency ~crashed ?channel_floor () =
  {
    engine;
    rng;
    latency;
    subscriptions = Node_id.Tbl.create 16;
    consumed = Node_id.Tbl.create 1;
    observers = Node_set.empty;
    crashed;
    channel_floor;
    notify = None;
  }

(* [observers] names exactly the ids holding a subscription row, so a
   node's first registration costs no failed table probe. *)
let subscribed t observer =
  if Node_set.mem observer t.observers then Node_id.Tbl.find t.subscriptions observer
  else Node_set.empty

let consumed t observer =
  Option.value (Node_id.Tbl.find_opt t.consumed observer) ~default:Node_set.empty

let on_crash_notification t handler = t.notify <- Some handler

let is_crashed t p = Node_id.Tbl.mem t.crashed p

(* Rare by construction: latency sampling, an engine closure and float
   arithmetic, paid once per (observer, crash) pair. *)
let schedule_notification t ~observer ~target =
  let delay = Latency.sample t.latency t.rng in
  (* Channel consistency: never notify before the crashed node's
     in-flight messages to the observer have landed. *)
  let floor =
    match t.channel_floor with
    | Some flush -> flush ~observer ~crashed:target +. 1e-9
    | None -> neg_infinity
  in
  let time = Float.max (Engine.now t.engine +. delay) floor in
  ignore
    (Engine.schedule_at t.engine ~time (fun () ->
         (* An observer that crashed meanwhile no longer receives
            events. *)
         if not (is_crashed t observer) then
           match t.notify with
           | Some handler -> handler ~observer ~crashed:target
           | None -> failwith "Failure_detector: no notification handler installed"))

(* Steady-state re-registration (every target already subscribed) is
   the per-round case and allocates nothing: [diff] returns the static
   empty set, [remove] and [is_empty] return physically.  `bench
   alloc`'s "failure detector monitor (steady-state)" row holds it at 0
   minor words/op; first registration pays the set copies once per
   topology edge. *)
let monitor t ~observer ~targets =
  let subscribed = subscribed t observer in
  (* Word-parallel dedup: one [diff] finds the genuinely new targets
     (minus self), one [union] registers them, and only those are
     walked element-wise for crashed ones — in ascending order, so the
     notification schedule matches the per-element version exactly.
     The walk's closure is built only when something is fresh. *)
  let fresh = Node_set.remove observer (Node_set.diff targets subscribed) in
  if not (Node_set.is_empty fresh) then begin
    Node_id.Tbl.replace t.subscriptions observer (Node_set.union subscribed fresh);
    t.observers <- Node_set.add observer t.observers;
    Node_set.iter
      (fun target -> if is_crashed t target then schedule_notification t ~observer ~target)
      fresh
  end

(* Whether [observer] subscribed to [target] and no false suspicion
   has consumed that subscription yet. *)
let pending t ~observer ~target =
  Node_set.mem target (subscribed t observer)
  && not (Node_set.mem target (consumed t observer))

let inject_false_suspicion t ~observer ~target =
  if
    pending t ~observer ~target
    && (not (is_crashed t target))
    && not (is_crashed t observer)
  then begin
    (* Consume the subscription so the pair is notified at most once,
       like a genuine notification would. *)
    Node_id.Tbl.replace t.consumed observer (Node_set.add target (consumed t observer));
    schedule_notification t ~observer ~target
  end

(* Every currently subscribed pair registered while [target] was
   alive (it crashes only once), so the subscription rows minus the
   suspicion-consumed pairs are exactly the old inverse table. *)
let inject_crash t target =
  Node_set.iter
    (fun observer ->
      if pending t ~observer ~target then schedule_notification t ~observer ~target)
    t.observers
