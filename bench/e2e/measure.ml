(* The timed phases of a run and the metrics they yield.

   A run is one workload in one process: a closed loop with one client
   that starts the next op when the previous one returns.  Untraced
   (trace 0) it times every op for the requested seconds and reports
   the end-to-end metrics.  Traced (trace 1) it spends half the time
   untraced, for the GC counters and the untraced op time, and half on
   traced ops, and reports the per-layer metrics. *)

(* Growable buffer of per-op samples, kept off the OCaml heap so that the
   benchmark's own bookkeeping adds no work to the GC whose pauses the
   timed ops include. *)
module Buf = struct
  open Bigarray

  type t = { mutable data : (float, float64_elt, c_layout) Array1.t; mutable len : int }

  let create () = { data = Array1.create float64 c_layout 4096; len = 0 }

  let push t x =
    if t.len = Array1.dim t.data then begin
      let grown = Array1.create float64 c_layout (2 * t.len) in
      Array1.blit t.data (Array1.sub grown 0 t.len);
      t.data <- grown
    end;
    Array1.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let get t i = Array1.get t.data i

  let sorted t = Sample.sorted (Array.init t.len (get t))
end

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** one line each: sample counts and caveats *)
}

let ns_of_seconds s = int_of_float (s *. 1e9)

(* The set-up is timed this many times before the timed phase (the run
   keeps the last instance) and as many times after it, and [setup_s]
   is the median of all of them.  One set-up takes well under a second,
   so a slow stretch of the host can cover every repeat made at one
   moment; two moments the length of the run apart rarely both fall in
   one. *)
let setup_repeats = 5

(* Times [setup_repeats] set-ups; returns the last instance. *)
let setups w ~seed =
  let last = ref None in
  let times =
    List.init setup_repeats (fun _ ->
        let start = Spans.now () in
        last := Some (Workload.setup w ~seed);
        float_of_int (Spans.now () - start) /. 1e9)
  in
  (Option.get !last, times)

type phase = { ops : int; failed_ops : int }

(* Runs [step i] for ops [i = 0, 1, ...] until [seconds] have passed;
   at least one op always runs. *)
let closed_loop ~seconds step =
  let deadline = Spans.now () + ns_of_seconds seconds in
  let i = ref 0 and failed = ref 0 in
  while !i = 0 || Spans.now () < deadline do
    if not (step !i) then incr failed;
    incr i
  done;
  { ops = !i; failed_ops = !failed }

(* Every op's start (monotonic ns) and duration (ns), in order. *)
type timeline = { starts : Buf.t; times : Buf.t }

let untraced inst ~seconds =
  let tl = { starts = Buf.create (); times = Buf.create () } in
  let phase =
    closed_loop ~seconds (fun i ->
        let start = Spans.now () in
        let ok = Workload.op inst i in
        Buf.push tl.starts (float_of_int start);
        Buf.push tl.times (float_of_int (Spans.now () - start));
        ok)
  in
  (phase, tl)

let sample_note label sorted =
  let n = Array.length sorted in
  Printf.sprintf "%s: %d samples, %d beyond p90%s" label n (Sample.beyond ~n 90.)
    (if Sample.tail_supported ~n 90. then ""
     else Printf.sprintf " (fewer than %d: p90 unsupported)" Sample.min_tail)

(* The timed ops are cut into at most [max_groups] groups of consecutive
   ops, of equal size and at least [min_group_ops] each (the last takes
   the remainder).  Each group gives a median op time and a throughput;
   the run reports the best group of each.  The host slows every op by
   20-60% for stretches of tens of seconds, often covering most of a
   run; the best group is the op as it runs when nothing else
   interferes, and it moves far less from run to run than a median over
   the whole run does. *)
let max_groups = 20

let min_group_ops = 100

type group = { median_ns : float; ops_per_s : float }

let groups tl =
  let n = tl.times.len in
  let k = Int.max 1 (Int.min max_groups (n / min_group_ops)) in
  let size = n / k in
  List.init k (fun g ->
      let first = g * size in
      let next = if g = k - 1 then n else first + size in
      let stop =
        if next = n then Buf.get tl.starts (n - 1) +. Buf.get tl.times (n - 1)
        else Buf.get tl.starts next
      in
      let times = Sample.sorted (Array.init (next - first) (fun i -> Buf.get tl.times (first + i))) in
      {
        median_ns = Sample.median times;
        ops_per_s = float_of_int (next - first) /. ((stop -. Buf.get tl.starts first) /. 1e9);
      })

let best f better groups =
  List.fold_left (fun acc g -> if better (f g) acc then f g else acc) (f (List.hd groups)) groups

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

let end_to_end w ~seed ~seconds =
  let inst, before = setups w ~seed in
  (* The heap peak of the set-ups: a fixed amount of work (graph, pool,
     warm-up ops), so a faster commit that fits more timed ops into the
     run does not raise it. *)
  let top_heap_mb = mb_of_words (Gc.quick_stat ()).top_heap_words in
  let phase, tl = untraced inst ~seconds in
  let groups = groups tl in
  let _, after = setups w ~seed in
  let setup_s = Sample.median (Sample.sorted (Array.of_list (before @ after))) in
  {
    correct = phase.failed_ops = 0;
    attempted = phase.ops;
    failed = phase.failed_ops;
    metrics =
      [
        { name = "setup_s"; value = setup_s; unit = "s" };
        { name = "op_p50_us"; value = best (fun g -> g.median_ns) ( < ) groups /. 1e3; unit = "us" };
        { name = "ops_per_s"; value = best (fun g -> g.ops_per_s) ( > ) groups; unit = "1/s" };
        { name = "top_heap_mb"; value = top_heap_mb; unit = "MB" };
      ];
    notes =
      [
        sample_note "op times" (Buf.sorted tl.times);
        Printf.sprintf "op_p50_us, ops_per_s: best of %d groups of %d consecutive ops"
          (List.length groups) (phase.ops / List.length groups);
        Printf.sprintf
          "setup_s: median of %d set-ups, %d before and %d after the timed ops, %d warm-up ops each"
          (2 * setup_repeats) setup_repeats setup_repeats w.Workload.warmup;
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let zero = { Spans.t_busy = 0; t_self = 0; t_calls = 0 }

let layers w ~seed ~seconds ~spans =
  let inst = Workload.setup w ~seed in
  let gc0 = Gc.quick_stat () in
  let plain, plain_tl = untraced inst ~seconds:(seconds /. 2.) in
  let plain_times = Buf.sorted plain_tl.times in
  let gc1 = Gc.quick_stat () in
  let c = Workload.counts () in
  let traced = closed_loop ~seconds:(seconds /. 2.) (Workload.traced_op spans c inst) in
  let tot = Spans.totals spans in
  let get layer = Option.value ~default:zero (Hashtbl.find_opt tot layer) in
  let ops = float_of_int traced.ops in
  let per_op x = float_of_int x /. ops in
  let us_per_op ns = float_of_int ns /. 1e3 /. ops in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let init = get "core.protocol.init"
  and crash = get "core.protocol.crash"
  and deliver = get "core.protocol.deliver" in
  let steps = init.t_calls + crash.t_calls + deliver.t_calls in
  let protocol_ns = init.t_busy + crash.t_busy + deliver.t_busy in
  let make = get "core.runner.make" and runner = get "core.runner" in
  let checker = get "core.checker" and null_run = get "probe.null_run" in
  let fd_ns = (get "probe.monitor_run").t_self - null_run.t_busy in
  let replay = get "probe.substrate_replay" and obs_replay = get "probe.obs_replay" in
  let record_ns = ratio obs_replay.t_busy c.obs_events in
  (* The substrate replay records its own sends and deliveries and the
     null run its own crashes, so the causal-log share not covered by
     another probe is the protocol events the runner records. *)
  let breadcrumb_ns = int_of_float (record_ns *. float_of_int c.breadcrumbs) in
  let runner_probes_ns = null_run.t_busy + fd_ns + replay.t_busy + breadcrumb_ns in
  let op = get "op" and explore = get "mcheck.explore" in
  let covered_ns =
    match w.Workload.kind with
    | Workload.Agreement _ ->
        protocol_ns + make.t_busy + checker.t_busy + runner_probes_ns
    | Workload.Model_check -> explore.t_busy
  in
  let op_times = Buf.create () in
  Spans.iter spans (fun s -> if String.equal s.layer "op" then Buf.push op_times (float_of_int s.busy));
  let op_times = Buf.sorted op_times in
  let vt = Sample.sorted (Array.of_list c.decide_vt) in
  let vt_at p = if Array.length vt = 0 then 0. else Sample.percentile vt p in
  let plain_ops = float_of_int plain.ops in
  let gc_per_op f = (f gc1 -. f gc0) /. plain_ops in
  let m name unit value = { name; value; unit } in
  {
    correct = plain.failed_ops = 0 && traced.failed_ops = 0;
    attempted = plain.ops + traced.ops;
    failed = plain.failed_ops + traced.failed_ops;
    metrics =
      [
        m "protocol.steps_per_op" "count" (per_op steps);
        m "protocol.init_steps_per_op" "count" (per_op init.t_calls);
        m "protocol.crash_steps_per_op" "count" (per_op crash.t_calls);
        m "protocol.deliver_steps_per_op" "count" (per_op deliver.t_calls);
        m "protocol.step_ns" "ns" (ratio protocol_ns steps);
        m "protocol.init_step_ns" "ns" (ratio init.t_busy init.t_calls);
        m "protocol.deliver_step_ns" "ns" (ratio deliver.t_busy deliver.t_calls);
        m "protocol.busy_us_per_op" "us" (us_per_op protocol_ns);
        m "protocol.sends_per_step" "ratio" (ratio c.sends steps);
        m "runner.make_us_per_op" "us" (us_per_op make.t_busy);
        m "runner.null_run_us" "us" (us_per_op null_run.t_busy);
        m "runner.unattributed_us_per_op" "us" (us_per_op (runner.t_self - runner_probes_ns));
        m "fd.subscribe_us_per_op" "us" (us_per_op fd_ns);
        m "fd.subscriptions_per_op" "count" (per_op c.subscriptions);
        m "fd.notifications_per_op" "count" (per_op c.notifications);
        m "substrate.replay_us_per_op" "us" (us_per_op replay.t_busy);
        m "msgs_per_op" "msgs" (per_op c.wire_sends);
        m "net.sends_per_op" "count" (per_op c.logical_sends);
        m "net.units_per_op" "count" (per_op c.units);
        m "net.retransmits_per_op" "count" (per_op c.retransmits);
        m "net.dedups_per_op" "count" (per_op c.dedups);
        m "net.useful_frac" "ratio" (ratio c.delivered c.wire_sends);
        m "net.stalls_per_op" "count" (per_op c.stalls);
        m "sim.events_per_op" "count" (per_op c.engine_events);
        m "sim.ns_per_event" "ns" (ratio replay.t_busy c.replay_events);
        m "obs.events_per_op" "count" (per_op c.obs_events);
        m "obs.record_ns" "ns" record_ns;
        m "obs.metrics_us_per_op" "us" (us_per_op (get "probe.obs_metrics").t_busy);
        m "geometry.crash_ns" "ns" (ratio (get "probe.geometry").t_busy c.geometry_crashes);
        m "checker.check_us_per_op" "us" (us_per_op checker.t_busy);
        m "mcheck.states_per_op" "count" (per_op c.states);
        m "mcheck.transitions_per_op" "count" (per_op c.transitions);
        m "op_p90_us" "us" (Sample.percentile plain_times 90. /. 1e3);
        m "decide_vt_p50" "vms" (vt_at 50.);
        m "decide_vt_p90" "vms" (vt_at 90.);
        m "gc.minor_words_per_op" "words" (gc_per_op (fun g -> g.Gc.minor_words));
        m "gc.major_words_per_op" "words" (gc_per_op (fun g -> g.Gc.major_words));
        m "gc.major_collections_per_op" "count"
          (gc_per_op (fun g -> float_of_int g.Gc.major_collections));
        m "trace.overhead_frac" "ratio"
          ((Sample.median op_times /. Sample.median plain_times) -. 1.);
        m "layer_coverage" "ratio" (ratio covered_ns op.t_busy);
      ];
    notes =
      [
        sample_note "untraced op times" plain_times;
        sample_note "traced op times" op_times;
        sample_note "decide_vt" vt;
      ];
  }
