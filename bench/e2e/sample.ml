(* Order statistics and the decision-latency definition shared by the
   benchmark run, its layer table and the [agree] report. *)

module Runner = Cliffedge.Runner
open Cliffedge_graph

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  Returns the 0-based index into a sorted
   array of [n] samples. *)
let rank ~n p =
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
  Int.max 0 (Int.min (n - 1) k)

let percentile sorted p =
  if Array.length sorted = 0 then invalid_arg "Sample.percentile: no samples";
  sorted.(rank ~n:(Array.length sorted) p)

(* A tail percentile is only trusted with this many samples strictly
   beyond it; below that one slow op decides its value. *)
let min_tail = 10

let beyond ~n p = if n = 0 then 0 else n - 1 - rank ~n p

let tail_supported ~n p = beyond ~n p >= min_tail

let median sorted =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Sample.median: no samples"
  else if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* First and third quartile exactly as Python's
   [statistics.quantiles(data, n=4)] computes them (the default
   'exclusive' method), so spreads printed here match what a reader
   recomputes from the raw values. *)
let quartiles sorted =
  let ld = Array.length sorted in
  if ld < 2 then invalid_arg "Sample.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((sorted.(j - 1) *. float_of_int (4 - delta)) +. (sorted.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 3)

(* Inter-quartile range as a share of the median. *)
let spread sorted =
  let q1, q3 = quartiles sorted in
  (q3 -. q1) /. median sorted

(* Virtual time from the crash that completed a decided view to the
   decision: [decision.time] minus the latest crash time among the
   view's nodes.  A node's crash time is its first entry in the
   schedule (the runner ignores repeated kills).  A decision whose view
   names a node the schedule never crashed has no such crash and
   contributes no sample. *)
let decide_vt ~(crashes : (float * Node_id.t) list) (decisions : _ Runner.decision list) =
  let crash_time p =
    List.fold_left
      (fun acc (t, q) ->
        if Node_id.equal p q then Some (Option.fold ~none:t ~some:(Float.min t) acc)
        else acc)
      None crashes
  in
  let latest_crash view =
    Node_set.fold
      (fun p acc -> Option.bind acc (fun l -> Option.map (Float.max l) (crash_time p)))
      view (Some neg_infinity)
  in
  List.filter_map
    (fun (d : _ Runner.decision) ->
      match latest_crash d.view with
      | Some latest when Float.is_finite latest -> Some (d.time -. latest)
      | Some _ | None -> None)
    decisions
