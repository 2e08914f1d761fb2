open Cliffedge_graph
module Protocol = Cliffedge.Protocol
module Message = Cliffedge.Message
module Opinion = Cliffedge.Opinion
module Checker = Cliffedge.Checker
module Runner = Cliffedge.Runner

type fd_semantics = [ `Channel_consistent | `Raw ]

type loss_budget = { max_drops : int; max_dups : int }

type channel_scope = [ `Reliable_fifo | `Lossy of loss_budget ]

type search_mode =
  | Exhaustive
  | Sample of { walks : int; seed : int }

type violation = {
  property : Checker.property;
  description : string;
  trace : string list;
}

type stats = {
  states_explored : int;
  transitions : int;
  leaves : int;
  violations : violation list;
  truncated : bool;
  handle_calls : int;
}

let ok stats = stats.violations = [] && not stats.truncated

let pp_stats ppf stats =
  Format.fprintf ppf "%d state(s), %d transition(s), %d leaf(ves), %d violation(s)%s"
    stats.states_explored stats.transitions stats.leaves
    (List.length stats.violations)
    (if stats.truncated then " [TRUNCATED]" else "");
  List.iter
    (fun v ->
      Format.fprintf ppf "@.  %s: %s@.  after: %s"
        (Checker.property_name v.property)
        v.description
        (String.concat " ; " v.trace))
    stats.violations

(* ------------------------------------------------------------------ *)
(* World representation (immutable)                                    *)

(* Ordered-pair comparisons appear all over the world representation
   (channels, subscriptions, notifications); name them once instead of
   reaching for the polymorphic primitives. *)
let pair_compare (a1, a2) (b1, b2) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c else Int.compare a2 b2

let pair_equal (a1, a2) (b1, b2) = Int.equal a1 b1 && Int.equal a2 b2

module Channel_map = Map.Make (struct
  type t = int * int

  let compare = pair_compare
end)

(* A live node's protocol state beside its fingerprint: a move steps
   one node, so only that node is rehashed. *)
type node = { state : string Protocol.state; fp : int }

(* A channel's queue, head = next to deliver: each message beside its
   hash, taken once when it is sent, so the copies of a multicast and a
   duplicate share their original's. *)
type queue = Empty | Msg of { msg : string Message.t; msg_fp : int; next : queue }

(* [q] with [msg], whose hash is [msg_fp], at its tail. *)
let rec enqueue q msg msg_fp =
  match q with
  | Empty -> Msg { msg; msg_fp; next = Empty }
  | Msg m -> Msg { m with next = enqueue m.next msg msg_fp }

(* A channel's queue beside the channel's item hash (see [world_fp]):
   its ends, its messages' hashes in order and its length.  The map
   holds non-empty channels only. *)
type channel = { queue : queue; queue_fp : int }

type world = {
  alive : node Node_map.t;
  crashed : Node_set.t;
  channels : channel Channel_map.t;
  pending_crashes : Node_id.t list;  (* injected in this order *)
  pending_notifs : (int * int) list;  (* (observer, crashed), sorted *)
  subs : (int * int) list;  (* (observer, target), sorted *)
  decisions : string Checker.decisions;
  touched : (int * int) list;  (* communicated ordered pairs, sorted *)
  drops_left : int;  (* lossy-channel budgets ([`Reliable_fifo] = 0) *)
  dups_left : int;
  sum : int;  (* the items' hashes, summed: see [world_fp] *)
}

type move =
  | Crash of Node_id.t
  | Deliver of int * int
  | Notify of int * int
  | Drop of int * int
  | Dup of int * int

let pp_move = function
  | Crash q -> Printf.sprintf "crash(%d)" (Node_id.to_int q)
  | Deliver (s, d) -> Printf.sprintf "deliver(%d->%d)" s d
  | Notify (o, c) -> Printf.sprintf "notify(%d of %d)" o c
  | Drop (s, d) -> Printf.sprintf "drop(%d->%d)" s d
  | Dup (s, d) -> Printf.sprintf "dup(%d->%d)" s d

(* [l] with [x] inserted in order; [l] itself, physically, when [x] is
   already there. *)
let rec sorted_insert x l =
  match l with
  | [] -> [ x ]
  | y :: rest ->
      let c = pair_compare x y in
      if c < 0 then x :: l
      else if Int.equal c 0 then l
      else
        let rest' = sorted_insert x rest in
        if rest' == rest then l else y :: rest'

(* Canonical state fingerprints.

   The visited-state table keys on one int per world.  A world carries
   [sum], the wrap-around sum of one tagged, fully mixed hash per item:
   each live node's cached [Protocol.fingerprint] under its id, each
   channel, each subscription, each pending notification and each
   decision.  A move adds the hashes of the items it creates and
   subtracts those of the items it removes, so its cost follows what
   it changed, not the size of the world, and [world_fp] mixes the sum
   with the few fields kept outright.  Addition, not xor, so two equal
   items (a node that decides twice) do not cancel; each item ends in
   a finalizer, so the sum is not linear in the items' fields.  A
   decision's time is not hashed, since only the check of that
   decision, made as it is taken, reads it, and neither are the
   communicated pairs.  At the X10 scope (< 10^6 states) the 63-bit
   collision odds are ~10^-7. *)

let mix = Protocol.mix

let value_fp = String.hash

(* splitmix64's finalizer, as [Node_set.hash] ends: every bit of [h]
   reaches every bit of the result. *)
let seal h =
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  h lxor (h lsr 31)

(* Item tags, mixed in first so that no two kinds of item meet. *)
let node_tag = mix 0 1
let channel_tag = mix 0 2
let sub_tag = mix 0 3
let notif_tag = mix 0 4
let decision_tag = mix 0 5

let node_item p fp = seal (mix (mix node_tag (Node_id.to_int p)) fp)

let pair_item tag (a, b) = seal (mix (mix tag a) b)

let decision_item p view value =
  seal (mix (mix (mix decision_tag (Node_id.to_int p)) (Node_set.hash view)) (value_fp value))

let mix_set h s = mix h (Node_set.hash s)

let mix_opinion p op h =
  let h = mix h (Node_id.to_int p) in
  match op with
  | Opinion.Accept v -> mix (mix h 1) (value_fp v)
  | Opinion.Reject -> mix h 2

let mix_opinions h vec =
  Opinion.Vector.fold mix_opinion vec (mix h (Opinion.Vector.known vec))

let message_fp msg =
  match msg with
  | Message.Round { round; view; border = _; opinions } ->
      mix_opinions (mix_set (mix (mix 0 3) round) view) opinions
  | Message.Outcome { view; opinions; _ } -> mix_opinions (mix_set (mix 0 4) view) opinions

let rec mix_queue h n = function
  | Empty -> mix h n
  | Msg m -> mix_queue (mix h m.msg_fp) (n + 1) m.next

(* Channel [(s, d)] holding [queue], which is not empty. *)
let channel_of (s, d) queue =
  { queue; queue_fp = seal (mix_queue (mix (mix channel_tag s) d) 0 queue) }

(* [w] with channel [key], whose item hash was [old_fp] (0: it held
   nothing), now holding [queue]. *)
let put_channel w key old_fp queue =
  let sum = w.sum - old_fp in
  match queue with
  | Empty -> { w with channels = Channel_map.remove key w.channels; sum }
  | Msg _ ->
      let c = channel_of key queue in
      { w with channels = Channel_map.add key c w.channels; sum = sum + c.queue_fp }

(* The pending crashes are a suffix of the configuration's schedule, so
   their count names them. *)
let world_fp w =
  let h = mix (Node_set.hash w.crashed) (List.length w.pending_crashes) in
  mix (mix (mix h w.drops_left) w.dups_left) w.sum

(* The visited set: fingerprints in an open-addressed int array with
   linear probing, at most half full, so recording a state is one probe
   sequence ([add] says whether the fingerprint was new).  World
   fingerprints end in a [mix], whose shift folds the high product bits
   into the low ones, so the low bits index the table as they are.
   [vacant] marks a free slot; the one fingerprint equal to it is kept
   as a flag. *)
module Visited = struct
  type t = { mutable slots : int array; mutable count : int; mutable has_vacant : bool }

  let vacant = min_int

  let create () = { slots = Array.make 4096 vacant; count = 0; has_vacant = false }

  let rec insert slots fp i =
    let s = slots.(i) in
    if Int.equal s vacant then begin
      slots.(i) <- fp;
      true
    end
    else if Int.equal s fp then false
    else insert slots fp ((i + 1) land (Array.length slots - 1))

  let grow t =
    let old = t.slots in
    let slots = Array.make (2 * Array.length old) vacant in
    let mask = Array.length slots - 1 in
    Array.iter
      (fun fp ->
        if not (Int.equal fp vacant) then ignore (insert slots fp (fp land mask)))
      old;
    t.slots <- slots

  let add t fp =
    if Int.equal fp vacant then begin
      let fresh = not t.has_vacant in
      t.has_vacant <- true;
      fresh
    end
    else begin
      if 2 * (t.count + 1) > Array.length t.slots then grow t;
      let fresh = insert t.slots fp (fp land (Array.length t.slots - 1)) in
      if fresh then t.count <- t.count + 1;
      fresh
    end
end

(* The transition cache.  [Protocol.handle] is a pure function of the
   config, a state and an event, and moves at different nodes commute,
   so the same node-local step comes back in every interleaving that
   reaches it.  Each step's result is kept under a key mixed from the
   node's id, its cached fingerprint and the event's key (see
   [step_node]); a later step of the same physical state on the same
   event (for a delivery, from the same sender with the same physical
   message) reuses the stored next node and actions instead of calling
   [handle] and [Protocol.fingerprint] again.  A hit hands back what
   [handle] returned for the same arguments, so it is exact, and since
   the reused states are shared physically, the steps after a hit hit
   too.  Physical identity needs no equality on states or messages.
   Keys end in [mix], so they index the table as they are. *)
type step = {
  input : string Protocol.state;
  event : string Protocol.event;
  next : node;
  actions : string Protocol.action list;
}

module Steps = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash key = key
end)

let same_event a b =
  match (a, b) with
  | Protocol.Init, Protocol.Init -> true
  | Protocol.Crash q, Protocol.Crash q' -> Node_id.equal q q'
  | Protocol.Deliver d, Protocol.Deliver d' -> Node_id.equal d.src d'.src && d.msg == d'.msg
  | (Protocol.Init | Protocol.Crash _ | Protocol.Deliver _), _ -> false

(* The step of [input] on [event] in [bucket].
   @raise Not_found when there is none. *)
let rec find_step input event = function
  | [] -> raise Not_found
  | s :: bucket ->
      if s.input == input && same_event s.event event then s else find_step input event bucket

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

let explore ?(fd = `Channel_consistent) ?(channel = `Reliable_fifo)
    ?(mode = Exhaustive) ?(max_states = 1_000_000) ?(early_stopping = true) ~graph
    ~crashes () =
  let cfg =
    Protocol.config ~early_stopping ~graph
      ~propose_value:(fun p v ->
        Printf.sprintf "plan(%d,%d)" (Node_id.to_int p) (Node_set.cardinal v))
      ()
  in
  (* 256 buckets: an array the minor heap takes, and no resize for the
     87 and 63 keys of X10's ring6 and path5 cascades. *)
  let visited = Visited.create () and steps = Steps.create 256 in
  let handle_calls = ref 0 in
  let states = ref 0
  and transitions = ref 0
  and leaves = ref 0
  and violations = ref []
  and truncated = ref false in
  (* [trace] is the schedule so far as moves, newest first: rendered
     only for the violations kept. *)
  let report trace ({ property; description; _ } : Checker.violation) =
    if List.length !violations < 10 then
      let trace = List.rev_map pp_move trace in
      violations := { property; description; trace } :: !violations
  in
  (* The checker's summary of the schedule so far.  The i-th crash is
     injected at time i and a decision has the number of crashes before
     it as its time, so CD2's test reads "crashed at the decision". *)
  let crash_time =
    Checker.crash_times (List.mapi (fun i q -> (float_of_int (i + 1), q)) crashes)
  in
  let obs = Cliffedge_obs.Log.create () in
  let summary ~quiescent w =
    {
      Checker.graph;
      crash_time;
      decisions = w.decisions;
      crashed = w.crashed;
      pairs = lazy (List.map (fun (s, d) -> Node_id.(of_int s, of_int d)) w.touched);
      quiescent;
      geometry = lazy (Fault_geometry.compute graph ~faulty:w.crashed);
      obs;
    }
  in
  (* -------------------- applying protocol actions ------------------ *)
  (* The copies of a multicast are [Send] actions over one physical
     message, so a message is hashed once. *)
  let last_sent = ref None and last_fp = ref 0 in
  let sent_fp msg =
    match !last_sent with
    | Some m when m == msg -> !last_fp
    | Some _ | None ->
        last_sent := Some msg;
        last_fp := message_fp msg;
        !last_fp
  in
  let rec apply_actions trace w p actions =
    List.fold_left
      (fun w action ->
        match action with
        | Protocol.Note _ -> w
        | Protocol.Monitor targets ->
            Node_set.fold
              (fun target w ->
                if Node_id.equal target p then w
                else
                  let key = (Node_id.to_int p, Node_id.to_int target) in
                  let subs = sorted_insert key w.subs in
                  if subs == w.subs then w
                  else
                    let sum = w.sum + pair_item sub_tag key in
                    if Node_set.mem target w.crashed then
                      let pending_notifs = sorted_insert key w.pending_notifs in
                      let sum =
                        if pending_notifs == w.pending_notifs then sum
                        else sum + pair_item notif_tag key
                      in
                      { w with subs; pending_notifs; sum }
                    else { w with subs; sum })
              targets w
        | Protocol.Send { dst; msg } ->
            let key = (Node_id.to_int p, Node_id.to_int dst) in
            let w = { w with touched = sorted_insert key w.touched } in
            if Node_set.mem dst w.crashed then w
            else begin
              match Channel_map.find_opt key w.channels with
              | None -> put_channel w key 0 (enqueue Empty msg (sent_fp msg))
              | Some c -> put_channel w key c.queue_fp (enqueue c.queue msg (sent_fp msg))
            end
        | Protocol.Decide { view; value } ->
            let injected = List.length crashes - List.length w.pending_crashes in
            let d =
              { Runner.node = p; view; value; time = float_of_int injected; event = None }
            in
            let found, decisions =
              Checker.at_decision ~value_equal:String.equal (summary ~quiescent:false w) d
            in
            List.iter (report trace) found;
            { w with decisions; sum = w.sum + decision_item p view value })
      w actions

  (* [event_key] is 0 for [Init], the crashed id for [Crash] and the
     sender mixed with the message's hash for [Deliver]. *)
  and step_node trace w p event ~event_key =
    match Node_map.find_opt p w.alive with
    | None -> w (* crashed meanwhile; event is void *)
    | Some node ->
        let key = mix (mix (mix 0 (Node_id.to_int p)) node.fp) event_key in
        let bucket = match Steps.find steps key with b -> b | exception Not_found -> [] in
        let { next; actions; _ } =
          match find_step node.state event bucket with
          | s -> s
          | exception Not_found ->
              incr handle_calls;
              let state, actions = Protocol.handle cfg node.state event in
              let next =
                if state == node.state then node
                else { state; fp = Protocol.fingerprint value_fp state }
              in
              let s = { input = node.state; event; next; actions } in
              Steps.replace steps key (s :: bucket);
              s
        in
        let w =
          if next.state == node.state then w
          else
            {
              w with
              alive = Node_map.add p next w.alive;
              sum = w.sum - node_item p node.fp + node_item p next.fp;
            }
        in
        apply_actions trace w p actions
  in
  (* -------------------- enabled moves ------------------------------ *)
  let enabled_moves w =
    let crash_moves =
      match w.pending_crashes with [] -> [] | q :: _ -> [ Crash q ]
    in
    let deliver_moves =
      Channel_map.fold
        (fun (s, d) _ acc ->
          if Node_map.mem (Node_id.of_int d) w.alive then Deliver (s, d) :: acc else acc)
        w.channels []
    in
    (* Lossy-channel adversary moves: the scheduler may also discard or
       duplicate the head of any non-empty channel while the respective
       budget lasts.  A duplicate re-enqueues at the tail, so the copy
       is additionally reordered past the rest of the queue. *)
    let fault_moves =
      if w.drops_left <= 0 && w.dups_left <= 0 then []
      else
        Channel_map.fold
          (fun (s, d) _ acc ->
            if Node_map.mem (Node_id.of_int d) w.alive then begin
              let acc = if w.drops_left > 0 then Drop (s, d) :: acc else acc in
              if w.dups_left > 0 then Dup (s, d) :: acc else acc
            end
            else acc)
          w.channels []
    in
    let notify_moves =
      List.filter_map
        (fun (o, c) ->
          let observer_alive = Node_map.mem (Node_id.of_int o) w.alive in
          let channel_clear =
            match fd with
            | `Raw -> true
            | `Channel_consistent -> not (Channel_map.mem (c, o) w.channels)
          in
          if observer_alive && channel_clear then Some (Notify (o, c)) else None)
        w.pending_notifs
    in
    crash_moves @ List.rev deliver_moves @ List.rev fault_moves @ notify_moves
  in
  let apply_move trace w move =
    match move with
    | Crash q ->
        let qi = Node_id.to_int q in
        let sum =
          match Node_map.find_opt q w.alive with
          | None -> w.sum
          | Some node -> w.sum - node_item q node.fp
        in
        (* Queued messages to q can never be delivered: drop them. *)
        let sum =
          Channel_map.fold
            (fun (_, d) c sum -> if Int.equal d qi then sum - c.queue_fp else sum)
            w.channels sum
        in
        (* Notifications to q are void. *)
        let sum =
          List.fold_left
            (fun sum ((o, _) as n) ->
              if Int.equal o qi then sum - pair_item notif_tag n else sum)
            sum w.pending_notifs
        in
        let w =
          {
            w with
            alive = Node_map.remove q w.alive;
            crashed = Node_set.add q w.crashed;
            pending_crashes = List.tl w.pending_crashes;
            channels = Channel_map.filter (fun (_, d) _ -> not (Int.equal d qi)) w.channels;
            pending_notifs = List.filter (fun (o, _) -> not (Int.equal o qi)) w.pending_notifs;
            sum;
          }
        in
        (* Live subscribers to q are now owed a notification. *)
        let pending_notifs, sum =
          List.fold_left
            (fun ((notifs, sum) as acc) ((o, t) as n) ->
              if Int.equal t qi && Node_map.mem (Node_id.of_int o) w.alive then
                let notifs' = sorted_insert n notifs in
                if notifs' == notifs then acc else (notifs', sum + pair_item notif_tag n)
              else acc)
            (w.pending_notifs, w.sum) w.subs
        in
        { w with pending_notifs; sum }
    | Deliver (s, d) -> (
        let key = (s, d) in
        let c = Channel_map.find key w.channels in
        match c.queue with
        | Empty -> assert false
        | Msg head ->
            let w = put_channel w key c.queue_fp head.next in
            step_node trace w (Node_id.of_int d)
              (Protocol.Deliver { src = Node_id.of_int s; msg = head.msg })
              ~event_key:(mix s head.msg_fp))
    | Notify (o, c) ->
        let n = (o, c) in
        let w =
          {
            w with
            pending_notifs = List.filter (fun n' -> not (pair_equal n' n)) w.pending_notifs;
            sum = w.sum - pair_item notif_tag n;
          }
        in
        step_node trace w (Node_id.of_int o) (Protocol.Crash (Node_id.of_int c)) ~event_key:c
    | Drop (s, d) -> (
        let key = (s, d) in
        let c = Channel_map.find key w.channels in
        match c.queue with
        | Empty -> assert false
        | Msg head -> { (put_channel w key c.queue_fp head.next) with drops_left = w.drops_left - 1 })
    | Dup (s, d) -> (
        let key = (s, d) in
        let c = Channel_map.find key w.channels in
        match c.queue with
        | Empty -> assert false
        | Msg head ->
            {
              (put_channel w key c.queue_fp (enqueue c.queue head.msg head.msg_fp)) with
              dups_left = w.dups_left - 1;
            })
  in
  (* A quiescent leaf ends a schedule: no move is enabled. *)
  let leaf trace w =
    incr leaves;
    List.iter (report trace) (Checker.at_end (summary ~quiescent:true w))
  in
  (* -------------------- DFS over the state graph ------------------- *)
  let rec dfs trace w =
    if !states < max_states then begin
      if Visited.add visited (world_fp w) then begin
        incr states;
        match enabled_moves w with
        | [] -> leaf trace w
        | moves ->
            List.iter
              (fun move ->
                incr transitions;
                let trace = move :: trace in
                dfs trace (apply_move trace w move))
              moves
      end
    end
    else truncated := true
  in
  (* -------------------- initial world ------------------------------ *)
  let initial =
    let alive =
      Node_set.fold
        (fun p acc ->
          let state = Protocol.init ~self:p in
          Node_map.add p { state; fp = Protocol.fingerprint value_fp state } acc)
        (Graph.nodes graph) Node_map.empty
    in
    let w =
      {
        alive;
        crashed = Node_set.empty;
        channels = Channel_map.empty;
        pending_crashes = crashes;
        pending_notifs = [];
        subs = [];
        decisions = Checker.no_decisions;
        touched = [];
        drops_left =
          (match channel with `Reliable_fifo -> 0 | `Lossy { max_drops; _ } -> max_drops);
        dups_left =
          (match channel with `Reliable_fifo -> 0 | `Lossy { max_dups; _ } -> max_dups);
        sum = Node_map.fold (fun p node sum -> sum + node_item p node.fp) alive 0;
      }
    in
    (* Initialisation is not a scheduling choice: all nodes boot before
       the first crash, so it precedes every move of a trace. *)
    Node_set.fold (fun p w -> step_node [] w p Protocol.Init ~event_key:0) (Graph.nodes graph) w
  in
  (match mode with
  | Exhaustive -> dfs [] initial
  | Sample { walks; seed } ->
      let rng = Cliffedge_prng.Prng.create seed in
      let record w = if Visited.add visited (world_fp w) then incr states in
      for _ = 1 to walks do
        let rec walk trace w =
          record w;
          match enabled_moves w with
          | [] -> leaf trace w
          | moves ->
              let move = Cliffedge_prng.Prng.choose rng moves in
              incr transitions;
              let trace = move :: trace in
              walk trace (apply_move trace w move)
        in
        walk [] initial
      done);
  {
    states_explored = !states;
    transitions = !transitions;
    leaves = !leaves;
    violations = List.rev !violations;
    truncated = !truncated;
    handle_calls = !handle_calls;
  }
