(* Adversarial state-walk properties on the pure protocol machine.

   A single node is fed long random—but well-formed—event sequences
   (growing crash notifications, round-1 proposals and rejections from
   peers, outcome broadcasts) and its internal invariants are checked
   after every transition.  This complements the end-to-end runs: here
   the environment does not follow the protocol, only the model's
   well-formedness rules, so the machine's own monotonicity and
   stability guarantees carry all the weight. *)

open Cliffedge_graph
module Protocol = Cliffedge.Protocol
module Message = Cliffedge.Message
module Opinion = Cliffedge.Opinion
module Prng = Cliffedge_prng.Prng

let graph = Topology.torus 6 6

let cfg ~early_stopping =
  Protocol.config ~early_stopping ~graph
    ~propose_value:(fun p v ->
      Format.asprintf "%a/%d" Node_id.pp p (Node_set.cardinal v))
    ()

let self = Node_id.of_int 14

(* A random region bordered by [self], built by growing from one of its
   neighbours while never absorbing [self]. *)
let random_bordered_region rng =
  let start = Node_set.random_element rng (Graph.neighbours graph self) in
  let rec grow region k =
    if k = 0 then region
    else
      let border = Node_set.remove self (Graph.border graph region) in
      if Node_set.is_empty border then region
      else grow (Node_set.add (Node_set.random_element rng border) region) (k - 1)
  in
  grow (Node_set.singleton start) (Prng.int rng 4)

let random_event rng st =
  match Prng.int rng 4 with
  | 0 ->
      (* A new crash adjacent to what the node already knows (or a fresh
         neighbour), keeping view construction realistic. *)
      let crashed = Protocol.locally_crashed st in
      let frontier =
        if Node_set.is_empty crashed then Graph.neighbours graph self
        else Node_set.remove self (Graph.border graph crashed)
      in
      if Node_set.is_empty frontier then None
      else Some (Protocol.Crash (Node_set.random_element rng frontier))
  | 1 ->
      (* Round-1 accept from a peer border node of a random view. *)
      let view = random_bordered_region rng in
      let border = Graph.border graph view in
      let peers = Node_set.remove self border in
      if Node_set.is_empty peers then None
      else
        let src = Node_set.random_element rng peers in
        Some
          (Protocol.Deliver
             {
               src;
               msg =
                 Message.Round
                   {
                     round = 1;
                     view;
                     border;
                     opinions = Opinion.Vector.singleton src (Opinion.Accept "peer");
                   };
             })
  | 2 ->
      (* Rejection from a peer. *)
      let view = random_bordered_region rng in
      let border = Graph.border graph view in
      let peers = Node_set.remove self border in
      if Node_set.is_empty peers then None
      else
        let src = Node_set.random_element rng peers in
        Some
          (Protocol.Deliver
             {
               src;
               msg =
                 Message.Round
                   {
                     round = 1;
                     view;
                     border;
                     opinions = Opinion.Vector.singleton src Opinion.Reject;
                   };
             })
  | _ ->
      (* Failed-outcome broadcast (the early-termination extension). *)
      let view = random_bordered_region rng in
      let border = Graph.border graph view in
      let peers = Node_set.remove self border in
      if Node_set.is_empty peers then None
      else
        let src = Node_set.random_element rng peers in
        Some
          (Protocol.Deliver
             {
               src;
               msg =
                 Message.Outcome
                   {
                     view;
                     border;
                     opinions = Opinion.Vector.singleton src Opinion.Reject;
                   };
             })

type snapshot = {
  crashed : Node_set.t;
  max_view : Cliffedge.View.t;
  decided : (Cliffedge.View.t * string) option;
  rejected : Cliffedge.View.t list;
  proposals : Cliffedge.View.t list;  (* reversed *)
}

let snapshot st proposals =
  {
    crashed = Protocol.locally_crashed st;
    max_view = Protocol.max_view st;
    decided = Protocol.decided st;
    rejected = Protocol.rejected_views st;
    proposals;
  }

let check_step before after =
  if not (Node_set.subset before.crashed after.crashed) then
    QCheck2.Test.fail_report "locallyCrashed not monotone";
  if Ranking.lower graph after.max_view before.max_view then
    QCheck2.Test.fail_report "maxView rank decreased";
  (match (before.decided, after.decided) with
  | Some (v, d), Some (v', d') when Node_set.equal v v' && String.equal d d' -> ()
  | Some _, Some _ -> QCheck2.Test.fail_report "decision changed"
  | Some _, None -> QCheck2.Test.fail_report "decision forgotten"
  | None, _ -> ());
  if
    not
      (List.for_all
         (fun r -> List.exists (Node_set.equal r) after.rejected)
         before.rejected)
  then QCheck2.Test.fail_report "rejected set shrank";
  (* Proposals strictly increase in rank (Lemma 2). *)
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> Ranking.lower graph b a && strictly_increasing rest
    | _ -> true
  in
  (* [proposals] is reversed: newest first. *)
  if not (strictly_increasing after.proposals) then
    QCheck2.Test.fail_report "proposals not strictly increasing in rank"

let walk ~early_stopping seed =
  let rng = Prng.create seed in
  let c = cfg ~early_stopping in
  let st = Protocol.init ~self in
  let st, _ = Protocol.handle c st Protocol.Init in
  let proposals = ref [] in
  let state = ref st in
  for _ = 1 to 60 do
    match random_event rng !state with
    | None -> ()
    | Some event ->
        let before = snapshot !state !proposals in
        let st, actions = Protocol.handle c !state event in
        List.iter
          (function
            | Protocol.Note (Protocol.Proposed v) -> proposals := v :: !proposals
            | Protocol.Send { dst; _ } ->
                if Node_id.equal dst self then
                  QCheck2.Test.fail_report "machine sent a message to itself"
            | _ -> ())
          actions;
        state := st;
        check_step before (snapshot st !proposals)
  done;
  (* Fingerprints are deterministic and total. *)
  let fp1 = Protocol.fingerprint Hashtbl.hash !state in
  let fp2 = Protocol.fingerprint Hashtbl.hash !state in
  Int.equal fp1 fp2

let prop_invariants =
  QCheck2.Test.make ~name:"protocol invariants under adversarial event walks"
    ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (walk ~early_stopping:false)

let prop_invariants_early =
  QCheck2.Test.make
    ~name:"protocol invariants under adversarial walks (early stopping)" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (walk ~early_stopping:true)

(* Distinct states almost surely have distinct fingerprints; identical
   replays have identical ones. *)
let prop_fingerprint_replay =
  QCheck2.Test.make ~name:"fingerprints identify replayed states" ~count:50
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let run () =
        let rng = Prng.create seed in
        let c = cfg ~early_stopping:false in
        let st = ref (fst (Protocol.handle c (Protocol.init ~self) Protocol.Init)) in
        for _ = 1 to 30 do
          match random_event rng !st with
          | None -> ()
          | Some e -> st := fst (Protocol.handle c !st e)
        done;
        Protocol.fingerprint Hashtbl.hash !st
      in
      Int.equal (run ()) (run ()))

(* The model checker merges states by fingerprint, so over a walk's
   states an equal fingerprint must mean equal observables.  Every state
   is checked against the first one seen with its fingerprint, so a
   step that changes the rendered state but not the fingerprint fails
   too. *)
let prop_fingerprint_separates =
  QCheck2.Test.make ~name:"equal fingerprints mean equal observable states" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let c = cfg ~early_stopping:(Int.equal (seed mod 2) 0) in
      let observe st =
        ( Format.asprintf "%a" (Protocol.pp_state Format.pp_print_string) st,
          Protocol.known_views st,
          Protocol.rejected_views st,
          Protocol.waiting_on st )
      in
      let same_observables (pp1, known1, rej1, wait1) (pp2, known2, rej2, wait2) =
        String.equal pp1 pp2
        && List.equal Node_set.equal known1 known2
        && List.equal Node_set.equal rej1 rej2
        && Option.equal Node_set.equal wait1 wait2
      in
      let seen = Hashtbl.create 64 in
      let visit st =
        let fp = Protocol.fingerprint Hashtbl.hash st in
        match Hashtbl.find_opt seen fp with
        | Some o when not (same_observables o (observe st)) ->
            QCheck2.Test.fail_report "equal fingerprints, different observables"
        | Some _ -> ()
        | None -> Hashtbl.add seen fp (observe st)
      in
      let st = ref (fst (Protocol.handle c (Protocol.init ~self) Protocol.Init)) in
      visit !st;
      for _ = 1 to 60 do
        match random_event rng !st with
        | None -> ()
        | Some e ->
            st := fst (Protocol.handle c !st e);
            visit !st
      done;
      true)

(* The model checker's transition cache reuses a step's result whenever
   one state meets one event again, which is exact only while [handle]
   reads nothing but its arguments.  Along a walk, each state is stepped
   twice on its event, and the whole walk is replayed from a physically
   distinct initial state with freshly built events: at every step all
   four results must agree on the next state's fingerprint and the
   rendered actions. *)
let render_actions actions =
  let pp_view = Cliffedge.View.pp in
  let action ppf = function
    | Protocol.Monitor targets -> Format.fprintf ppf "monitor %a" Node_set.pp targets
    | Protocol.Send { dst; msg } ->
        Format.fprintf ppf "send %a %a" Node_id.pp dst (Message.pp Format.pp_print_string) msg
    | Protocol.Decide { view; value } -> Format.fprintf ppf "decide %a %s" pp_view view value
    | Protocol.Note (Protocol.Proposed v) -> Format.fprintf ppf "proposed %a" pp_view v
    | Protocol.Note (Protocol.Rejected_view v) -> Format.fprintf ppf "rejected %a" pp_view v
    | Protocol.Note (Protocol.Attempt_failed v) -> Format.fprintf ppf "failed %a" pp_view v
    | Protocol.Note (Protocol.Advanced_round { view; round }) ->
        Format.fprintf ppf "round %d of %a" round pp_view view
    | Protocol.Note (Protocol.Early_outcome { view; success }) ->
        Format.fprintf ppf "outcome %b of %a" success pp_view view
  in
  Format.asprintf "%a" (Format.pp_print_list ~pp_sep:Format.pp_print_space action) actions

let prop_handle_pure =
  QCheck2.Test.make ~name:"handle is a function of its arguments" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let c = cfg ~early_stopping:(Int.equal (seed mod 2) 0) in
      let step st event =
        let st, actions = Protocol.handle c st event in
        (st, (Protocol.fingerprint Hashtbl.hash st, render_actions actions))
      in
      let same (fp1, actions1) (fp2, actions2) =
        Int.equal fp1 fp2 && String.equal actions1 actions2
      in
      (* The results of one replay, stepping each state twice. *)
      let run () =
        let rng = Prng.create seed in
        let results = ref [] in
        let twice st event =
          let next, result = step st event in
          if not (same result (snd (step st event))) then
            QCheck2.Test.fail_report "one state and one event, two results";
          results := result :: !results;
          next
        in
        let st = ref (twice (Protocol.init ~self) Protocol.Init) in
        for _ = 1 to 60 do
          match random_event rng !st with
          | None -> ()
          | Some event -> st := twice !st event
        done;
        List.rev !results
      in
      List.equal same (run ()) (run ()))

let suite =
  ( "protocol invariants",
    [
      QCheck_alcotest.to_alcotest prop_invariants;
      QCheck_alcotest.to_alcotest prop_invariants_early;
      QCheck_alcotest.to_alcotest prop_fingerprint_replay;
      QCheck_alcotest.to_alcotest prop_fingerprint_separates;
      QCheck_alcotest.to_alcotest prop_handle_pure;
    ] )
