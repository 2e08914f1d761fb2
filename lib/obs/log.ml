open Cliffedge_graph

(* Storage: pointer-free segments.

   Events live in segments of [seg_events] = 32 events, allocated when
   the first of them is recorded and then filled in place: a segment is
   never copied, regrown or freed before the log.  Its int column is
   [stride * seg_events] = 160 words and its time column a flat float
   array of 32, both under [Max_young_wosize] (256 words), so a short
   run's log is allocated in the minor heap and dies there, and a
   promoted segment holds nothing the major GC has to follow.

   Per event, the int column holds [node; meta; a; b; c]: [meta] packs
   the causal parent plus one (0 is "none") above an instance flag and
   the kind's 4-bit tag, and [a], [b], [c] are the kind's int payloads
   (unused slots stay 0).  The instance view is the only pointer: it
   goes into a per-segment column that is allocated at the segment's
   first event that has one.

   The three directories (segment -> column) double, one slot per 32
   events, filled with the empty array.  That filler is a static atom,
   never young: [Array.make] of more than 256 words with a young filler
   first runs a minor collection to promote it, so a store grown with a
   fresh event as filler would force one at every doubling past 256
   events. *)

let seg_bits = 5

let seg_events = 1 lsl seg_bits

let seg_mask = seg_events - 1

let stride = 5

let tag_bits = 4

let tag_mask = (1 lsl tag_bits) - 1

let has_instance = 1 lsl tag_bits

let parent_shift = tag_bits + 1

type t = {
  mutable ints : int array array;
  mutable times : float array array;
  mutable views : Node_set.t array array;
  mutable size : int;
  mutable context : int option;
}

let create () = { ints = [||]; times = [||]; views = [||]; size = 0; context = None }

let length t = t.size

let double dir =
  let n = Array.length dir in
  let bigger = Array.make (Int.max 8 (2 * n)) [||] in
  Array.blit dir 0 bigger 0 n;
  bigger

let open_segment t seg =
  if Int.equal seg (Array.length t.ints) then begin
    t.ints <- double t.ints;
    t.times <- double t.times;
    t.views <- double t.views
  end;
  t.ints.(seg) <- Array.make (stride * seg_events) 0;
  t.times.(seg) <- Array.make seg_events 0.0

(* Writes [kind]'s payloads from [ints.(i)] on and returns its tag. *)
let write_kind ints i (kind : Event.kind) =
  match kind with
  | Crash -> 0
  | Suspect { target } ->
      ints.(i) <- Node_id.to_int target;
      1
  | Send { dst; units } ->
      ints.(i) <- Node_id.to_int dst;
      ints.(i + 1) <- units;
      2
  | Deliver { src } ->
      ints.(i) <- Node_id.to_int src;
      3
  | Retransmit { dst; attempt; frames } ->
      ints.(i) <- Node_id.to_int dst;
      ints.(i + 1) <- attempt;
      ints.(i + 2) <- frames;
      4
  | Stall { dst } ->
      ints.(i) <- Node_id.to_int dst;
      5
  | Propose -> 6
  | Reject -> 7
  | Round { round } ->
      ints.(i) <- round;
      8
  | Abort -> 9
  | Early_outcome { success } ->
      ints.(i) <- Bool.to_int success;
      10
  | Decide -> 11

let read_kind ints i tag : Event.kind =
  match tag with
  | 0 -> Crash
  | 1 -> Suspect { target = Node_id.of_int ints.(i) }
  | 2 -> Send { dst = Node_id.of_int ints.(i); units = ints.(i + 1) }
  | 3 -> Deliver { src = Node_id.of_int ints.(i) }
  | 4 ->
      Retransmit
        { dst = Node_id.of_int ints.(i); attempt = ints.(i + 1); frames = ints.(i + 2) }
  | 5 -> Stall { dst = Node_id.of_int ints.(i) }
  | 6 -> Propose
  | 7 -> Reject
  | 8 -> Round { round = ints.(i) }
  | 9 -> Abort
  | 10 -> Early_outcome { success = not (Int.equal ints.(i) 0) }
  | _ -> Decide

let record t ~time ~node ?instance ?parent kind =
  if Float.is_nan time then invalid_arg "Obs.Log.record: NaN time";
  let parent =
    match parent with
    | Some p when p < 0 || p >= t.size ->
        invalid_arg "Obs.Log.record: causal parent must be an already-recorded event"
    | Some p -> p
    | None -> -1
  in
  let seq = t.size in
  let seg = seq lsr seg_bits and slot = seq land seg_mask in
  if Int.equal slot 0 then open_segment t seg;
  let ints = t.ints.(seg) and i = slot * stride in
  let tag = write_kind ints (i + 2) kind in
  let flag =
    match instance with
    | None -> 0
    | Some view ->
        if Int.equal (Array.length t.views.(seg)) 0 then
          t.views.(seg) <- Array.make seg_events Node_set.empty;
        t.views.(seg).(slot) <- view;
        has_instance
  in
  ints.(i) <- Node_id.to_int node;
  ints.(i + 1) <- ((parent + 1) lsl parent_shift) lor flag lor tag;
  t.times.(seg).(slot) <- time;
  t.size <- seq + 1;
  seq

let[@inline] check t seq =
  if seq < 0 || seq >= t.size then invalid_arg "Obs.Log: no event with this sequence id"

let[@inline] meta t seq = t.ints.(seq lsr seg_bits).(((seq land seg_mask) * stride) + 1)

let[@inline] parent_of_meta meta =
  let p = (meta lsr parent_shift) - 1 in
  if p < 0 then None else Some p

let[@inline] time t seq =
  check t seq;
  t.times.(seq lsr seg_bits).(seq land seg_mask)

let[@inline] node t seq =
  check t seq;
  Node_id.of_int t.ints.(seq lsr seg_bits).((seq land seg_mask) * stride)

let[@inline] parent t seq =
  check t seq;
  parent_of_meta (meta t seq)

let[@inline] instance t seq =
  check t seq;
  if Int.equal (meta t seq land has_instance) 0 then None
  else Some t.views.(seq lsr seg_bits).(seq land seg_mask)

let[@inline] kind t seq =
  check t seq;
  read_kind t.ints.(seq lsr seg_bits)
    (((seq land seg_mask) * stride) + 2)
    (meta t seq land tag_mask)

(* All fields at once, locating the event's slot once; [seq] is in
   range. *)
let event t seq =
  let seg = seq lsr seg_bits and slot = seq land seg_mask in
  let ints = t.ints.(seg) and i = slot * stride in
  let meta = ints.(i + 1) in
  {
    Event.seq;
    time = t.times.(seg).(slot);
    node = Node_id.of_int ints.(i);
    instance =
      (if Int.equal (meta land has_instance) 0 then None else Some t.views.(seg).(slot));
    parent = parent_of_meta meta;
    kind = read_kind ints (i + 2) (meta land tag_mask);
  }

let find t seq = if seq < 0 || seq >= t.size then None else Some (event t seq)

let to_list t = List.init t.size (event t)

let iter t f =
  for seq = 0 to t.size - 1 do
    f (event t seq)
  done

let context t = t.context

let with_context t seq f =
  let saved = t.context in
  t.context <- Some seq;
  match f () with
  | () -> t.context <- saved
  | exception e ->
      t.context <- saved;
      raise e

let pp ppf t = iter t (fun e -> Format.fprintf ppf "%a@." Event.pp e)
