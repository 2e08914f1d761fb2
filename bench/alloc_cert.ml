(* Allocation budgets of the steady-state paths.

   Each row drives one code path for real and pins its Gc.minor_words
   delta per operation against a budget quoted here and at the source
   site: the node-set and opinion-vector queries, the engine heap, a
   stale and a merged Deliver, the model checker's fingerprint, the
   detector's re-registration, one log record and two whole delivery
   paths.  This is the only gate on those claims (DESIGN.md §12), and
   it runs under `dune runtest` through @bench-smoke; the per-row
   numbers also flow into the BENCH_PR*.json `alloc_cert` section,
   where `bench compare` ratchets them by row name.

   Budgets are exact small-word counts (a result tuple is 3 words, an
   engine event its entry and boxed time), with 1/16 word of slack for
   the counter reads themselves; they are NOT noise-scaled thresholds —
   an extra allocation on any of these paths is a bug, not a drift.
   The obs row and the two substrate rows measure a log's storage and
   whole delivery paths: their budgets are measured costs, fractional
   where growth is amortised, that a rewrite of the path may not
   exceed. *)

open Cliffedge_graph
module Protocol = Cliffedge.Protocol
module Message = Cliffedge.Message
module Opinion = Cliffedge.Opinion
module Engine = Cliffedge_sim.Engine
module Prng = Cliffedge_prng.Prng
module Failure_detector = Cliffedge_detector.Failure_detector
module Substrate = Cliffedge_detector.Substrate
module Latency = Cliffedge_net.Latency
module Faults = Cliffedge_net.Faults
module Transport = Cliffedge_net.Transport
module Table = Cliffedge_report.Table
module Json = Cliffedge_report.Json
module Obs = Cliffedge_obs

let iters = 100_000
let warmup = 1_000

(* Per-op minor words of [f], measured over [iters] calls after a
   warmup (so pool priming and lazy growth are paid before the clock
   starts).  The measurement loop itself is allocation-free: a [for]
   loop over an immediate counter calling a known closure. *)
let measure (f : unit -> unit) =
  for _ = 1 to warmup do
    f ()
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let after = Gc.minor_words () in
  (after -. before) /. float_of_int iters

type entry = { name : string; budget : float; thunk : unit -> unit }

(* lib/graph/node_set.ml: the word-parallel query loops the delivery
   path runs.  Sets span three 63-bit words, so [mem] takes the binary
   search and every loop actually iterates. *)
let node_set_entry () =
  let a = Node_set.of_ints [ 1; 2; 3; 64; 65; 130 ] in
  (* Equal to [a] but physically distinct, so [equal] walks every slot
     instead of returning on the identity or length check. *)
  let a' = Node_set.of_ints [ 1; 2; 3; 64; 65; 130 ] in
  let b = Node_set.of_ints [ 2; 3; 64 ] in
  let c = Node_set.of_ints [ 200; 201 ] in
  let probe = Node_id.of_int 65 in
  {
    name = "node_set queries (mem/subset/disjoint/equal/compare/hash)";
    budget = 0.0;
    thunk =
      (fun () ->
        ignore (Sys.opaque_identity (Node_set.mem probe a));
        ignore (Sys.opaque_identity (Node_set.subset b a));
        ignore (Sys.opaque_identity (Node_set.disjoint a c));
        ignore (Sys.opaque_identity (Node_set.equal a a'));
        ignore (Sys.opaque_identity (Node_set.compare a c));
        ignore (Sys.opaque_identity (Node_set.hash a)));
  }

(* lib/sim/engine.ml: one schedule and one step against a queue holding
   64 pending events, so every push and pop sifts through the heap.
   The sifts and the pop allocate nothing; what remains is the event
   itself, 7 words per event: the 4-field entry (5 words) and its boxed
   time (2).  The action is built once, outside the loop. *)
let engine_entry () =
  let engine = Engine.create () in
  let action () = () in
  for i = 0 to 63 do
    ignore (Engine.schedule engine ~delay:(float_of_int (i mod 7)) action)
  done;
  {
    name = "engine: schedule + step";
    budget = 7.0;
    thunk =
      (fun () ->
        ignore (Engine.schedule engine ~delay:3.0 action);
        ignore (Sys.opaque_identity (Engine.step engine)));
  }

(* lib/core/opinion.ml: the no-change merge paths (already-known
   singleton, fresh = 0) return [t] physically, and a membership probe
   is one binary search: 0 minor words/op. *)
let opinion_merge_entry () =
  let base =
    Opinion.Vector.of_list
      [
        (Node_id.of_int 3, Opinion.Accept "d"); (Node_id.of_int 11, Opinion.Reject);
      ]
  in
  let singleton = Opinion.Vector.singleton (Node_id.of_int 3) (Opinion.Accept "d") in
  let both =
    Opinion.Vector.of_list
      [
        (Node_id.of_int 3, Opinion.Accept "d"); (Node_id.of_int 11, Opinion.Reject);
      ]
  in
  {
    name = "opinion vector merge (no-change)";
    budget = 0.0;
    thunk =
      (fun () ->
        (* Retransmitted single vote: binary-search fast path. *)
        ignore (Sys.opaque_identity (Opinion.Vector.merge base ~incoming:singleton));
        (* Full vector already known: fresh = 0 join pass. *)
        ignore (Sys.opaque_identity (Opinion.Vector.merge base ~incoming:both));
        ignore (Sys.opaque_identity (Opinion.Vector.mem base (Node_id.of_int 11))));
  }

(* lib/core/protocol.ml: node 7 of a 5x5 grid after [Init] and the
   crash of its neighbour 12, so it runs a live instance for view {12}
   with border {7, 11, 13, 17}, and node 11's round-1 opinion for it. *)
let protocol_deliver_setup () =
  let graph = Topology.grid 5 5 in
  let cfg = Protocol.config ~graph ~propose_value:(fun _ _ -> "d") () in
  let st = Protocol.init ~self:(Node_id.of_int 7) in
  let st, _ = Protocol.handle cfg st Protocol.Init in
  let st, _ = Protocol.handle cfg st (Protocol.Crash (Node_id.of_int 12)) in
  let msg =
    Message.Round
      {
        round = 1;
        view = Node_set.of_ints [ 12 ];
        border = Node_set.of_ints [ 7; 11; 13; 17 ];
        opinions =
          Opinion.Vector.singleton (Node_id.of_int 11) (Opinion.Accept "d");
      }
  in
  (cfg, st, Protocol.Deliver { src = Node_id.of_int 11; msg })

(* lib/core/protocol.ml deliver, first sight: the opinion merges into
   the live instance, which needs two more before its round completes.
   The state changes but no guard input does, so [handle] re-checks
   round completion only ([scan_inputs_unchanged]) and returns the
   callee's result pair.  The budget is the measured cost of the new
   state, 42 words per call. *)
let protocol_merge_entry () =
  let cfg, st, ev = protocol_deliver_setup () in
  {
    name = "protocol deliver (merge, guards stable)";
    budget = 42.0;
    thunk = (fun () -> ignore (Sys.opaque_identity (Protocol.handle cfg st ev)));
  }

(* lib/core/protocol.ml deliver: a stale retransmission (same Round
   message delivered twice) leaves the state physically unchanged, so
   [handle]'s flat-state fast path returns the callee's result pair —
   exactly one 3-word tuple per call. *)
let protocol_stale_entry () =
  let cfg, st, ev = protocol_deliver_setup () in
  (* First delivery applies the transition; every later one is stale. *)
  let st, _ = Protocol.handle cfg st ev in
  {
    name = "protocol deliver (stale retransmission)";
    budget = 3.0;
    thunk = (fun () -> ignore (Sys.opaque_identity (Protocol.handle cfg st ev)));
  }

(* lib/core/protocol.ml fingerprint: the model checker rehashes the node
   that stepped on every move.  Mid-protocol state: one live instance
   whose round-1 vector holds two of its four border opinions, and one
   view rejected by a failed outcome.  5 words per call: the one
   closure over the value hash (header, two code pointers, closure
   info, environment).  The string rendering it replaced cost 1 608
   words per call on this state. *)
let protocol_fingerprint_entry () =
  let cfg, st, ev = protocol_deliver_setup () in
  let step st event = fst (Protocol.handle cfg st event) in
  let st = step st ev in
  let st =
    step st
      (Protocol.Deliver
         {
           src = Node_id.of_int 3;
           msg =
             Message.Outcome
               {
                 view = Node_set.of_ints [ 8 ];
                 border = Node_set.of_ints [ 3; 7; 9; 13 ];
                 opinions = Opinion.Vector.singleton (Node_id.of_int 3) Opinion.Reject;
               };
         })
  in
  assert (
    Int.equal (List.length (Protocol.known_views st)) 1
    && Int.equal (List.length (Protocol.rejected_views st)) 1);
  {
    name = "protocol fingerprint (mid-protocol state)";
    budget = 5.0;
    thunk = (fun () -> ignore (Sys.opaque_identity (Protocol.fingerprint Hashtbl.hash st)));
  }

(* lib/detector/failure_detector.ml monitor: steady-state
   re-registration (every target already subscribed) — the word-parallel
   dedup finds nothing fresh and the call returns without allocating. *)
let detector_monitor_entry () =
  let engine = Engine.create () in
  let rng = Prng.create 7 in
  let fd =
    Failure_detector.create ~engine ~rng
      ~latency:(Latency.Uniform { min = 1.0; max = 10.0 })
      ~crashed:(Node_id.Tbl.create 1) ()
  in
  let observer = Node_id.of_int 9 in
  let targets = Node_set.of_ints [ 1; 2; 3; 4 ] in
  Failure_detector.monitor fd ~observer ~targets;
  {
    name = "failure detector monitor (steady-state)";
    budget = 0.0;
    thunk = (fun () -> Failure_detector.monitor fd ~observer ~targets);
  }

(* lib/obs/log.ml record: one [Send] with a parent appended to a log
   that is dropped for a fresh one every 4 096 events, so the words per
   op are a 4 096-event log's storage per event, segment and directory
   growth included.  The kind and parent are built once, outside the
   loop: what remains is the log's own allocation, six words of int
   and float columns per event plus segment headers and directory
   slots.  The array of [Event.t] records this store replaced read 7.1
   here, and also kept each caller's kind, parent option and boxed
   time alive until the log was dropped. *)
let obs_record_entry () =
  let log = ref (Obs.Log.create ()) in
  let node = Node_id.of_int 3 and parent = Some 0 in
  let kind = Obs.Event.Send { dst = Node_id.of_int 4; units = 1 } in
  {
    name = "obs: record one event";
    budget = 6.25;
    thunk =
      (fun () ->
        let l = !log in
        if Int.equal (Obs.Log.length l) 4096 then log := Obs.Log.create ();
        let l = !log in
        let parent = if Int.equal (Obs.Log.length l) 0 then None else parent in
        ignore (Obs.Log.record l ~time:1.0 ~node ?parent kind));
  }

(* lib/detector/substrate.ml down to lib/net: one logical send between
   two live nodes, then the engine run to quiescence with a no-op
   handler, obs recording included — the [Send] and [Deliver] events,
   the envelope, the channel records, the per-pair count and the engine
   events, all of it per message.  Over ARQ on a loss-free plan the
   message also carries its data frame, the ack that answers it, and
   the retransmission timer that the ack cancels.  The budgets are the
   measured costs with the log's pointer-free segments and no closure
   per delivered item. *)
let substrate_entry ~name ~budget channel =
  let latency = Latency.Uniform { min = 1.0; max = 10.0 } in
  let sub =
    Substrate.create ~channel ~seed:7 ~message_latency:latency ~detection_latency:latency
      ~channel_consistent_fd:true ()
  in
  Substrate.on_deliver sub (fun ~src:_ ~dst:_ () -> ());
  let src = Node_id.of_int 1 and dst = Node_id.of_int 2 in
  {
    name;
    budget;
    thunk =
      (fun () ->
        Substrate.send sub ~src ~dst ();
        Substrate.run ~max_events:max_int sub);
  }

let entries () =
  [
    node_set_entry ();
    opinion_merge_entry ();
    protocol_merge_entry ();
    protocol_stale_entry ();
    protocol_fingerprint_entry ();
    detector_monitor_entry ();
    engine_entry ();
    obs_record_entry ();
    substrate_entry ~name:"substrate: reliable send -> delivery" ~budget:59.2
      Transport.Reliable;
    substrate_entry ~name:"substrate: ARQ send -> delivery -> ack" ~budget:136.2
      (Transport.Arq_over_faulty (Faults.none, Transport.default_policy));
  ]

(* Slack for the boxed floats of the two counter reads, amortised over
   [iters] ops — far below the smallest real allocation (2 words). *)
let slack = 0.0625

let run () =
  let table =
    Table.create ~title:"allocation budgets (Gc.minor_words per op)"
      ~columns:[ "path"; "minor w/op"; "budget"; "status" ]
  in
  let failures = ref 0 in
  List.iter
    (fun e ->
      let per_op = measure e.thunk in
      let pass = per_op <= e.budget +. slack in
      if not pass then incr failures;
      Table.add_row table
        [
          e.name;
          Table.cell "%.4f" per_op;
          Table.cell "%g" e.budget;
          (if pass then "ok" else "OVER BUDGET");
        ];
      Json_out.record ~section:"alloc_cert"
        [
          ( e.name,
            Json.Obj
              [
                ("minor_words_per_op", Json.Float per_op);
                ("budget", Json.Float e.budget);
                ("pass", Json.Bool pass);
              ] );
        ])
    (entries ());
  Table.print table;
  if !failures > 0 then begin
    Printf.printf
      "bench alloc: %d row%s over budget — a path allocates more than its \
       quoted budget\n"
      !failures
      (if !failures = 1 then " is" else "s are");
    exit 1
  end
  else print_endline "bench alloc: all rows within budget"

(* [--json FILE] is stripped by the harness's global option parser
   before dispatch (like every other command), so only stray arguments
   can reach us here. *)
let command = function
  | [] -> run ()
  | arg :: _ ->
      Printf.eprintf "bench: alloc: unknown argument %S\n" arg;
      exit 2
