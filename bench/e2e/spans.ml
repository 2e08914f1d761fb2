(* In-memory spans for the traced run.

   A span is one timed call into a layer, seen from the benchmark's
   side of the boundary: layer name, the op it belongs to, start, end
   and the span that caused it.  Calls too frequent to record one by
   one (a protocol step, a stepper construction) share an aggregate
   span that accumulates their busy time and call count; its start and
   end are those of the first and last call.  A span's self time is its
   busy time minus the busy time of its children.  Spans stay in memory
   until the run ends, when the layer table is computed from them and
   they are optionally written out as JSONL. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  op : int;
  layer : string;
  mutable start : int;  (** monotonic ns *)
  mutable stop : int;
  mutable busy : int;  (** ns spent inside the layer's calls *)
  mutable calls : int;
}

type t = { mutable spans : span array; mutable len : int }

let create () = { spans = [||]; len = 0 }

let add t ~parent ~op layer =
  let s = { id = t.len; parent; op; layer; start = 0; stop = 0; busy = 0; calls = 0 } in
  if t.len = Array.length t.spans then begin
    let grown = Array.make (Int.max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  s

(* [timed t ~op layer f] records one call of [f], which receives the
   span (to parent the spans it opens itself). *)
let timed t ?(parent = -1) ~op layer f =
  let s = add t ~parent ~op layer in
  s.start <- now ();
  let r = f s in
  s.stop <- now ();
  s.busy <- s.stop - s.start;
  s.calls <- 1;
  r

let aggregate t ~(parent : span) layer = add t ~parent:parent.id ~op:parent.op layer

(* Charges one call that started at [start] and has just returned. *)
let charge s ~start =
  let stop = now () in
  if s.calls = 0 then s.start <- start;
  s.stop <- stop;
  s.busy <- s.busy + (stop - start);
  s.calls <- s.calls + 1

let iter t f =
  for i = 0 to t.len - 1 do
    f t.spans.(i)
  done

(* Per-layer totals: busy ns, self ns and calls, keyed by layer name. *)
type total = { mutable t_busy : int; mutable t_self : int; mutable t_calls : int }

let totals t =
  let child_busy = Array.make t.len 0 in
  iter t (fun s -> if s.parent >= 0 then child_busy.(s.parent) <- child_busy.(s.parent) + s.busy);
  let tbl = Hashtbl.create 32 in
  iter t (fun s ->
      let tot =
        match Hashtbl.find_opt tbl s.layer with
        | Some tot -> tot
        | None ->
            let tot = { t_busy = 0; t_self = 0; t_calls = 0 } in
            Hashtbl.replace tbl s.layer tot;
            tot
      in
      tot.t_busy <- tot.t_busy + s.busy;
      tot.t_self <- tot.t_self + (s.busy - child_busy.(s.id));
      tot.t_calls <- tot.t_calls + s.calls);
  tbl

let to_jsonl oc t =
  iter t (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%s,\"op\":%d,\"layer\":%S,\"start_ns\":%d,\"end_ns\":%d,\"busy_ns\":%d,\"calls\":%d}\n"
        s.id
        (if s.parent < 0 then "null" else string_of_int s.parent)
        s.op s.layer s.start s.stop s.busy s.calls)
