open Cliffedge_graph
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Latency = Cliffedge_net.Latency

(* Dense node-id-indexed tables (grown on demand): every query on the
   runner's dispatch path — [is_crashed], the subscription dedup — is
   one array read instead of a generic-hash-table probe.  Node ids are
   small and dense in every workload (the topologies number them
   contiguously), so the arrays stay tiny.

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
  (* observer id -> targets already subscribed (dedup; a slot keeps its
     targets after notification so a pair fires at most once) *)
  mutable subscriptions : Node_set.t array;
  (* observer id -> targets whose subscription was consumed early by a
     false suspicion (so a later genuine crash must not re-notify).
     Rows stay empty unless suspicions are injected. *)
  mutable consumed : Node_set.t array;
  (* ids whose subscription row is non-empty: the [inject_crash] walk *)
  mutable observers : Node_set.t;
  (* node id -> crash time; [nan] = alive.  [crashed] mirrors the
     non-[nan] slots as a set for [crashed_nodes]. *)
  mutable crash_times : float array;
  mutable crashed : Node_set.t;
  channel_floor : (observer:Node_id.t -> crashed:Node_id.t -> float) option;
  mutable notify : (observer:Node_id.t -> crashed:Node_id.t -> unit) option;
}

let create ~engine ~rng ~latency ?channel_floor () =
  {
    engine;
    rng;
    latency;
    subscriptions = Array.make 64 Node_set.empty;
    consumed = Array.make 64 Node_set.empty;
    observers = Node_set.empty;
    crash_times = Array.make 64 Float.nan;
    crashed = Node_set.empty;
    channel_floor;
    notify = None;
  }

let[@lint.cold] grow_sets arr i =
  let n = Array.length arr in
  if i < n then arr
  else begin
    let out = Array.make (Int.max (i + 1) (2 * n)) Node_set.empty in
    Array.blit arr 0 out 0 n;
    out
  end

let[@lint.cold] grow_times arr i =
  let n = Array.length arr in
  if i < n then arr
  else begin
    let out = Array.make (Int.max (i + 1) (2 * n)) Float.nan in
    Array.blit arr 0 out 0 n;
    out
  end

let on_crash_notification t handler = t.notify <- Some handler

let is_crashed t p =
  let i = Node_id.to_int p in
  i < Array.length t.crash_times && not (Float.is_nan t.crash_times.(i))

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
  let oi = Node_id.to_int observer in
  t.subscriptions <- grow_sets t.subscriptions oi;
  (* Word-parallel dedup: one [diff] finds the genuinely new targets
     (minus self), one [union] registers them, and only the already
     crashed ones are walked element-wise — in ascending order, so the
     notification schedule matches the per-element version exactly. *)
  let fresh =
    Node_set.remove observer (Node_set.diff targets t.subscriptions.(oi))
  in
  if not (Node_set.is_empty fresh) then begin
    t.subscriptions.(oi) <- Node_set.union t.subscriptions.(oi) fresh;
    t.observers <- Node_set.add observer t.observers;
    if not (Node_set.disjoint fresh t.crashed) then
      notify_crashed_fresh t ~observer fresh
  end

let inject_false_suspicion t ~observer ~target =
  let oi = Node_id.to_int observer in
  if
    oi < Array.length t.subscriptions
    && Node_set.mem target t.subscriptions.(oi)
    && (oi >= Array.length t.consumed || not (Node_set.mem target t.consumed.(oi)))
    && (not (is_crashed t target))
    && not (is_crashed t observer)
  then begin
    (* Consume the subscription so the pair is notified at most once,
       like a genuine notification would. *)
    t.consumed <- grow_sets t.consumed oi;
    t.consumed.(oi) <- Node_set.add target t.consumed.(oi);
    schedule_notification t ~observer ~target
  end

let inject_crash t target =
  let ti = Node_id.to_int target in
  if not (is_crashed t target) then begin
    t.crash_times <- grow_times t.crash_times ti;
    t.crash_times.(ti) <- Engine.now t.engine;
    t.crashed <- Node_set.add target t.crashed;
    (* Every currently subscribed pair registered while [target] was
       alive (it crashes only once), so the subscription rows minus the
       suspicion-consumed pairs are exactly the old inverse table. *)
    Node_set.iter
      (fun observer ->
        let oi = Node_id.to_int observer in
        if
          Node_set.mem target t.subscriptions.(oi)
          && (oi >= Array.length t.consumed
             || not (Node_set.mem target t.consumed.(oi)))
        then schedule_notification t ~observer ~target)
      t.observers
  end
