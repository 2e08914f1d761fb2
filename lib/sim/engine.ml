type entry = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable pending : bool;  (* false once fired or cancelled *)
}

type handle = entry

(* The event queue is a binary min-heap over [heap.(0 .. size - 1)],
   ordered by (time, seq), which is a total order: every correct heap
   fires the same sequence.  Slots at [size] and beyond hold [vacant],
   so a fired entry's closure is not kept alive by the array. *)
type t = {
  mutable heap : entry array;
  mutable size : int;
  mutable clock : float;
  mutable next_seq : int;
  mutable live : int;
  mutable processed : int;
}

(* Built once at module initialisation; [@lint.cold] tells the
   allocation certifier that reading it allocates nothing. *)
let[@lint.cold] vacant = { time = 0.0; seq = -1; action = ignore; pending = false }

let create () =
  { heap = [||]; size = 0; clock = 0.0; next_seq = 0; live = 0; processed = 0 }

let now t = t.clock

(* Times are finite (checked at [schedule_at]), so [not (b.time < a.time)]
   means equal times once [a.time < b.time] has failed. *)
let[@lint.hot_path] before a b =
  a.time < b.time || (a.seq < b.seq && not (b.time < a.time))

(* Hole-based sifting: the moving entry is written once, at its final
   slot, instead of being swapped down level by level. *)
let[@lint.hot_path] rec sift_up heap e i =
  if Int.equal i 0 then Array.unsafe_set heap 0 e
  else
    let parent = (i - 1) / 2 in
    let p = Array.unsafe_get heap parent in
    if before e p then begin
      Array.unsafe_set heap i p;
      sift_up heap e parent
    end
    else Array.unsafe_set heap i e

let[@lint.hot_path] rec sift_down heap size e i =
  let left = (2 * i) + 1 in
  if left >= size then Array.unsafe_set heap i e
  else
    let right = left + 1 in
    let child =
      if right < size && before (Array.unsafe_get heap right) (Array.unsafe_get heap left)
      then right
      else left
    in
    let c = Array.unsafe_get heap child in
    if before c e then begin
      Array.unsafe_set heap i c;
      sift_down heap size e child
    end
    else Array.unsafe_set heap i e

(* Removes and returns the earliest entry; the heap must be non-empty. *)
let[@lint.hot_path] pop_min t =
  let heap = t.heap in
  let top = Array.unsafe_get heap 0 in
  let last = t.size - 1 in
  t.size <- last;
  let moved = Array.unsafe_get heap last in
  Array.unsafe_set heap last vacant;
  if last > 0 then sift_down heap last moved 0;
  top

let push t entry =
  let capacity = Array.length t.heap in
  if Int.equal t.size capacity then begin
    let heap = Array.make (Int.max 16 (2 * capacity)) vacant in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end;
  t.size <- t.size + 1;
  sift_up t.heap entry (t.size - 1)

(* A NaN time would poison the heap: every comparison against NaN is
   false, so the heap invariant silently breaks and events fire in
   arbitrary order.  Validate here, the single entry point, rather than
   defending inside the heap. *)
let schedule_at t ~time action =
  if not (Float.is_finite time) then
    invalid_arg "Engine.schedule_at: time must be finite";
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let entry = { time; seq = t.next_seq; action; pending = true } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  push t entry;
  entry

let schedule t ~delay action =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative or NaN delay";
  schedule_at t ~time:(t.clock +. delay) action

let cancel t handle =
  if handle.pending then begin
    handle.pending <- false;
    t.live <- t.live - 1
  end

let pending t = t.live

(* Cancelled entries stay queued until they reach the top, where
   [step] and [run] drop them. *)
let rec step t =
  if Int.equal t.size 0 then false
  else
    let entry = pop_min t in
    if not entry.pending then step t
    else begin
      entry.pending <- false;
      t.clock <- entry.time;
      t.live <- t.live - 1;
      t.processed <- t.processed + 1;
      entry.action ();
      true
    end

(* Whether the earliest live event is due by [horizon]; drops cancelled
   entries from the top without firing anything. *)
let rec due t horizon =
  t.size > 0
  &&
  let head = Array.unsafe_get t.heap 0 in
  if head.pending then head.time <= horizon
  else begin
    ignore (pop_min t);
    due t horizon
  end

let rec run_from t horizon budget fired =
  if fired < budget && due t horizon && step t then
    run_from t horizon budget (fired + 1)

let run ?(until = Float.infinity) ?(max_events = max_int) t =
  run_from t until max_events 0

let events_processed t = t.processed
