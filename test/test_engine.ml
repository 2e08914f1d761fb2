(* Unit tests for the discrete-event engine. *)

module Engine = Cliffedge_sim.Engine

let test_initial_state () =
  let e = Engine.create () in
  Alcotest.(check (float 0.0)) "time 0" 0.0 (Engine.now e);
  Alcotest.(check int) "no pending" 0 (Engine.pending e);
  Alcotest.(check bool) "step on empty" false (Engine.step e)

let test_fires_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:5.0 (fun () -> log := 5 :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 3; 5 ] (List.rev !log)

let test_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:2.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_clock_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  ignore (Engine.schedule e ~delay:7.5 (fun () -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clock at event time" 7.5 !seen;
  Alcotest.(check (float 1e-9)) "clock persists" 7.5 (Engine.now e)

let test_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:1.0 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested fires" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "time accumulated" 2.0 (Engine.now e)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel e h;
  Alcotest.(check int) "pending zero after cancel" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check bool) "cancelled did not fire" false !fired

let test_cancel_idempotent () =
  let e = Engine.create () in
  let h = Engine.schedule e ~delay:1.0 ignore in
  Engine.cancel e h;
  Engine.cancel e h;
  Alcotest.(check int) "pending not negative" 0 (Engine.pending e)

(* Regression: [step] never marked the entry it fired, so cancelling a
   fired event decremented the live count a second time and [pending]
   under-counted (0 here while the late event was still queued, -1 after
   the drain). *)
let test_cancel_after_fire () =
  let e = Engine.create () in
  let early = Engine.schedule e ~delay:1.0 ignore in
  ignore (Engine.schedule e ~delay:10.0 ignore);
  Engine.run ~until:5.0 e;
  Engine.cancel e early;
  Alcotest.(check int) "late event still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check int) "both fired" 2 (Engine.events_processed e)

let test_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:10.0 (fun () -> log := 10 :: !log));
  Engine.run ~until:5.0 e;
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !log);
  Alcotest.(check int) "late event still queued" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "late event after resume" [ 1; 10 ] (List.rev !log)

let test_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule e ~delay:1.0 (fun () -> incr count))
  done;
  Engine.run ~max_events:3 e;
  Alcotest.(check int) "capped" 3 !count;
  Engine.run e;
  Alcotest.(check int) "resumable" 10 !count

let test_events_processed () =
  let e = Engine.create () in
  for _ = 1 to 4 do
    ignore (Engine.schedule e ~delay:1.0 ignore)
  done;
  Engine.run e;
  Alcotest.(check int) "processed counter" 4 (Engine.events_processed e)

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:5.0 ignore);
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~time:1.0 ignore))

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule: negative or NaN delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1.0) ignore))

(* Regression: a NaN compares false against everything, so before the
   scheduling-boundary validation a NaN time slipped past both guards,
   poisoned the heap order and could fire events out of order. *)
let test_nan_time_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Engine.schedule: negative or NaN delay") (fun () ->
      ignore (Engine.schedule e ~delay:Float.nan ignore));
  Alcotest.check_raises "nan time"
    (Invalid_argument "Engine.schedule_at: time must be finite") (fun () ->
      ignore (Engine.schedule_at e ~time:Float.nan ignore));
  Alcotest.check_raises "infinite time"
    (Invalid_argument "Engine.schedule_at: time must be finite") (fun () ->
      ignore (Engine.schedule_at e ~time:Float.infinity ignore));
  (* The queue stayed clean: ordinary scheduling still works. *)
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun () -> fired := 2 :: !fired));
  ignore (Engine.schedule e ~delay:1.0 (fun () -> fired := 1 :: !fired));
  Engine.run e;
  Alcotest.(check (list int)) "order intact" [ 2; 1 ] !fired

let test_self_perpetuating_chain () =
  let e = Engine.create () in
  let n = ref 0 in
  let rec tick () =
    incr n;
    if !n < 100 then ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  Engine.run e;
  Alcotest.(check int) "chain length" 100 !n;
  Alcotest.(check (float 1e-6)) "chain duration" 100.0 (Engine.now e)

(* Model-based order check.  Each scheduled event may, when it fires,
   schedule a child and cancel an arbitrary earlier event (pending,
   already fired, or itself); delays are drawn from a handful of values
   so equal times are common.  Events must fire in (time, seq) order,
   cancelled ones never, and [pending] must equal the model's live count
   after every step and inside every action. *)
type plan = { delay : int; child : int option; victim : int option }

let gen_plan =
  QCheck2.Gen.(
    map3
      (fun delay child victim -> { delay; child; victim })
      (int_range 0 4)
      (opt ~ratio:0.4 (int_range 0 4))
      (opt ~ratio:0.3 (int_range 0 1000)))

type model = {
  time : float;
  seq : int;
  handle : Engine.handle;
  mutable state : [ `Pending | `Fired | `Cancelled ];
}

let prop_fires_in_order =
  QCheck2.Test.make ~name:"fires in (time, seq) order" ~count:300
    QCheck2.Gen.(list_size (int_range 0 60) gen_plan)
    (fun plans ->
      let e = Engine.create () in
      let events = ref [||] and fired = ref [] in
      let live () =
        Array.fold_left
          (fun n m -> if m.state = `Pending then n + 1 else n)
          0 !events
      in
      let check_pending where =
        if Engine.pending e <> live () then
          QCheck2.Test.fail_reportf "%s: pending %d, model %d" where
            (Engine.pending e) (live ())
      in
      let rec schedule delay child victim =
        let seq = Array.length !events in
        let time = Engine.now e +. float_of_int delay in
        let action () =
          let m = !events.(seq) in
          if m.state <> `Pending then
            QCheck2.Test.fail_reportf "event %d fired while not pending" seq;
          m.state <- `Fired;
          fired := (time, seq) :: !fired;
          Option.iter (fun d -> schedule d None None) child;
          Option.iter
            (fun v ->
              let m = !events.(v mod Array.length !events) in
              Engine.cancel e m.handle;
              if m.state = `Pending then m.state <- `Cancelled)
            victim;
          check_pending "inside an action"
        in
        let handle = Engine.schedule e ~delay:(float_of_int delay) action in
        events := Array.append !events [| { time; seq; handle; state = `Pending } |]
      in
      List.iter (fun p -> schedule p.delay p.child p.victim) plans;
      check_pending "after scheduling";
      while Engine.step e do
        check_pending "after a step"
      done;
      let order = List.rev !fired in
      let rec sorted = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
        | _ -> true
      in
      if not (sorted order) then QCheck2.Test.fail_report "fired out of (time, seq) order";
      Array.iter
        (fun m ->
          if m.state = `Pending then
            QCheck2.Test.fail_reportf "event %d never fired" m.seq)
        !events;
      true)

let suite =
  ( "engine",
    [
      Alcotest.test_case "initial state" `Quick test_initial_state;
      Alcotest.test_case "time order" `Quick test_fires_in_time_order;
      Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
      Alcotest.test_case "clock advances" `Quick test_clock_advances;
      Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
      Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
      Alcotest.test_case "run until" `Quick test_run_until;
      Alcotest.test_case "max events" `Quick test_max_events;
      Alcotest.test_case "events processed" `Quick test_events_processed;
      Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
      Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
      Alcotest.test_case "nan time rejected" `Quick test_nan_time_rejected;
      Alcotest.test_case "event chain" `Quick test_self_perpetuating_chain;
      QCheck_alcotest.to_alcotest prop_fires_in_order;
    ] )
