open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Latency = Cliffedge_net.Latency

(* Detector state is kept only for the nodes a run activates, keyed
   by id in hash tables, so its cost follows the crashed region's
   vicinity rather than the largest id in the graph.

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
  mutable crashed : Node_set.t;
  channel_floor : (observer:Node_id.t -> crashed:Node_id.t -> float) option;
  mutable notify : (observer:Node_id.t -> crashed:Node_id.t -> unit) option;
}

let create ~engine ~rng ~latency ?channel_floor () =
  {
    engine;
    rng;
    latency;
    subscriptions = Node_id.Tbl.create 16;
    consumed = Node_id.Tbl.create 1;
    observers = Node_set.empty;
    crashed = Node_set.empty;
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

let is_crashed t p = Node_set.mem p t.crashed

let crashed_nodes t = t.crashed

(* Rare by construction: latency sampling, an engine closure and float
   arithmetic, paid once per (observer, crash) pair. *)
let[@lint.cold] schedule_notification t ~observer ~target =
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

(* Element-wise walk of the freshly registered targets that were already
   crashed — reached only through the [disjoint] guard below, i.e. when
   a registration races a crash, so the iteration closure and the
   notification float math stay off the re-registration fast path. *)
let[@lint.cold] notify_crashed_fresh t ~observer fresh =
  Node_set.iter
    (fun target ->
      if is_crashed t target then schedule_notification t ~observer ~target)
    fresh

(* Measured exemption: steady-state re-registration (every target
   already subscribed) is the per-round case and allocates nothing —
   [diff] returns the static empty set, [remove] and [is_empty] return
   physically — pinned at 0 minor words/op by `bench alloc`; first
   registration pays the set copies once per topology edge. *)
let[@lint.hot_path] [@lint.allow "hot-path-alloc"] monitor t ~observer ~targets =
  let subscribed = subscribed t observer in
  (* Word-parallel dedup: one [diff] finds the genuinely new targets
     (minus self), one [union] registers them, and only the already
     crashed ones are walked element-wise — in ascending order, so the
     notification schedule matches the per-element version exactly. *)
  let fresh = Node_set.remove observer (Node_set.diff targets subscribed) in
  if not (Node_set.is_empty fresh) then begin
    Node_id.Tbl.replace t.subscriptions observer (Node_set.union subscribed fresh);
    t.observers <- Node_set.add observer t.observers;
    if not (Node_set.disjoint fresh t.crashed) then
      notify_crashed_fresh t ~observer fresh
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

let inject_crash t target =
  if not (is_crashed t target) then begin
    t.crashed <- Node_set.add target t.crashed;
    (* Every currently subscribed pair registered while [target] was
       alive (it crashes only once), so the subscription rows minus the
       suspicion-consumed pairs are exactly the old inverse table. *)
    Node_set.iter
      (fun observer ->
        if pending t ~observer ~target then schedule_notification t ~observer ~target)
      t.observers
  end
