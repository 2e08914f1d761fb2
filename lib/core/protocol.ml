open Cliffedge_graph

type 'v config = {
  graph : Graph.t;
  propose_value : Node_id.t -> View.t -> 'v;
  pick : (Node_id.t * 'v) list -> 'v;
  rank : View.t -> View.t -> int;
  early_stopping : bool;
}

let lower cfg a b = cfg.rank a b < 0

let default_pick = function
  | [] -> invalid_arg "Protocol.default_pick: empty accept list"
  | (_, v) :: _ -> v

let config ?(early_stopping = true) ?(pick = default_pick) ?rank ~graph
    ~propose_value () =
  let rank = match rank with Some r -> r | None -> Ranking.compare graph in
  { graph; propose_value; pick; rank; early_stopping }

type 'v event =
  | Init
  | Crash of Node_id.t
  | Deliver of { src : Node_id.t; msg : 'v Message.t }

type note =
  | Proposed of View.t
  | Rejected_view of View.t
  | Attempt_failed of View.t
  | Advanced_round of { view : View.t; round : int }
  | Early_outcome of { view : View.t; success : bool }

type 'v action =
  | Monitor of Node_set.t
  | Send of { dst : Node_id.t; msg : 'v Message.t }
  | Decide of { view : View.t; value : 'v }
  | Note of note

(* Bookkeeping of one superposed consensus instance (the [received],
   [opinions] and [waiting] variables of Algorithm 1, grouped by the view
   that indexes them).  Rounds are dense: slot [r - 1] of each array
   belongs to round [r], so the per-round lookups of the delivery path
   are plain array reads instead of map descents.  The arrays are
   immutable after construction (copy-on-update, sized [total_rounds] =
   [|B| - 1], so a copy is a few words): states stay persistent values,
   which the exhaustive model checker branches over. *)
type 'v instance = {
  border : Node_set.t;
  total_rounds : int;
  opinions : 'v Opinion.Vector.t array;  (* slot r-1: round r's vector *)
  waiting : Node_set.t array;  (* slot r-1: participants not yet heard from *)
}

(* [views]/[insts] are parallel arrays sorted by [Node_set.compare] (the
   old [View.Map]'s key order), [rejected] a sorted array likewise:
   membership is a binary search over contiguous memory, and the whole
   [received] table is two flat pointers instead of an AVL spine.
   Updates copy the (small) spine arrays; instances themselves are
   shared. *)
type 'v state = {
  self : Node_id.t;
  decided : (View.t * 'v) option;
  proposed : 'v option;
  locally_crashed : Node_set.t;
  max_view : View.t;
  candidate_view : View.t option;
  current_view : View.t;  (* [Vp]; persists after failed attempts (line 26) *)
  round : int;
  views : View.t array;  (* sorted; keys of [received] *)
  insts : 'v instance array;  (* parallel to [views] *)
  rejected : View.t array;  (* sorted *)
}

let init ~self =
  {
    self;
    decided = None;
    proposed = None;
    locally_crashed = Node_set.empty;
    max_view = Node_set.empty;
    candidate_view = None;
    current_view = Node_set.empty;
    round = 0;
    views = [||];
    insts = [||];
    rejected = [||];
  }

(* ------------------------------------------------------------------ *)
(* Sorted-array primitives                                             *)

(* Binary search by [Node_set.compare]: the index when found, otherwise
   [lnot insertion_point] (negative).  Recursive with accumulator
   arguments: without flambda a [ref]-based loop heap-allocates its
   cells, and this runs on every delivery. *)
let[@lint.hot_path] rec view_ix_go arr v lo hi =
  if lo > hi then lnot lo
  else
    let mid = (lo + hi) / 2 in
    let c = Node_set.compare (Array.unsafe_get arr mid) v in
    if Int.equal c 0 then mid
    else if c < 0 then view_ix_go arr v (mid + 1) hi
    else view_ix_go arr v lo (mid - 1)

let[@lint.hot_path] view_ix arr v = view_ix_go arr v 0 (Array.length arr - 1)

let insert_at arr i v =
  (* Small cases as literals for the same reason as [set_at] below: a
     node tracks one or two live views at a time, so spine growth is
     almost always 0->1 or 1->2. *)
  match Array.length arr with
  | 0 -> [| v |]
  | 1 -> if Int.equal i 0 then [| v; arr.(0) |] else [| arr.(0); v |]
  | 2 ->
      if Int.equal i 0 then [| v; arr.(0); arr.(1) |]
      else if Int.equal i 1 then [| arr.(0); v; arr.(1) |]
      else [| arr.(0); arr.(1); v |]
  | n ->
      let out = Array.make (n + 1) v in
      Array.blit arr 0 out 0 i;
      Array.blit arr i out (i + 1) (n - i);
      out

let remove_at arr i =
  let n = Array.length arr in
  if Int.equal n 1 then [||]
  else begin
    let out = Array.make (n - 1) arr.(0) in
    Array.blit arr 0 out 0 i;
    Array.blit arr (i + 1) out i (n - 1 - i);
    out
  end

(* [Array.copy]/[Array.make] are C calls (~15ns each even for two-word
   arrays); the literal forms below compile to inline minor-heap bumps.
   Instances have [total_rounds] = |B| - 1 slots, so the small cases are
   the overwhelmingly common ones on the delivery path. *)
let set_at arr i v =
  match Array.length arr with
  | 1 -> [| v |]
  | 2 -> if Int.equal i 0 then [| v; arr.(1) |] else [| arr.(0); v |]
  | 3 ->
      if Int.equal i 0 then [| v; arr.(1); arr.(2) |]
      else if Int.equal i 1 then [| arr.(0); v; arr.(2) |]
      else [| arr.(0); arr.(1); v |]
  | _ ->
      let out = Array.copy arr in
      out.(i) <- v;
      out

let[@lint.hot_path] rejected_mem st view = view_ix st.rejected view >= 0

let rejected_add rejected view =
  let i = view_ix rejected view in
  if i >= 0 then rejected else insert_at rejected (lnot i) view

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let self st = st.self

let decided st = st.decided

let has_live_proposal st = Option.is_some st.proposed

let current_view st =
  if Node_set.is_empty st.current_view then None else Some st.current_view

let current_round st = st.round

let locally_crashed st = st.locally_crashed

let max_view st = st.max_view

let candidate_view st = st.candidate_view

let known_views st = Array.to_list st.views

let rejected_views st = Array.to_list st.rejected

let waiting_on st =
  if Option.is_none st.proposed then None
  else
    let ix = view_ix st.views st.current_view in
    if ix < 0 then None
    else
      let inst = st.insts.(ix) in
      if st.round < 1 || st.round > inst.total_rounds then None
      else
        Some (Node_set.diff inst.waiting.(st.round - 1) st.locally_crashed)

let pp_state pp_value ppf st =
  Format.fprintf ppf
    "@[<v>node %a: decided=%s proposed=%s round=%d@ crashed=%a maxView=%a Vp=%a@ \
     received=%d view(s), rejected=%d view(s)@]"
    Node_id.pp st.self
    (match st.decided with
    | Some (v, d) -> Format.asprintf "(%a, %a)" View.pp v pp_value d
    | None -> "no")
    (match st.proposed with Some _ -> "yes" | None -> "no")
    st.round Node_set.pp st.locally_crashed View.pp st.max_view View.pp
    st.current_view (Array.length st.views)
    (Array.length st.rejected)

(* One multiply-xorshift round (the multiplier is splitmix64's, as in
   [Node_set.hash]).  For a fixed [h] it is a bijection of [x] and for a
   fixed [x] a bijection of [h], so two sequences that differ in one
   element never meet, and the shift folds the high product bits back
   into the low bits that hash tables bucket on. *)
let mix h x =
  let h = (h lxor x) * 0x3f58476d1ce4e5b9 in
  h lxor (h lsr 29)

(* Every field in a fixed order; each option is tagged and each array
   framed by its length, so no two structurally distinct states feed
   [mix] the same sequence.  The [border] of an instance is omitted: it
   is a function of the view.  Loops over a local [ref] rather than
   folds, and [value_fp] captured by the one closure [opinion]: a call
   allocates only that closure. *)
let fingerprint value_fp st =
  let set h s = mix h (Node_set.hash s) in
  let opinion p op h =
    let h = mix h (Node_id.to_int p) in
    match op with Opinion.Accept v -> mix (mix h 1) (value_fp v) | Opinion.Reject -> mix h 2
  in
  let h = mix 0 (Node_id.to_int st.self) in
  let h =
    match st.decided with None -> mix h 0 | Some (v, d) -> mix (set (mix h 1) v) (value_fp d)
  in
  let h = match st.proposed with None -> mix h 0 | Some v -> mix (mix h 1) (value_fp v) in
  let h = set (set h st.locally_crashed) st.max_view in
  let h = match st.candidate_view with None -> mix h 0 | Some v -> set (mix h 1) v in
  let h = ref (mix (mix (set h st.current_view) st.round) (Array.length st.views)) in
  for i = 0 to Array.length st.views - 1 do
    let inst = st.insts.(i) in
    h := mix (set !h st.views.(i)) inst.total_rounds;
    for r = 0 to inst.total_rounds - 1 do
      let vec = inst.opinions.(r) in
      h := Opinion.Vector.fold opinion vec (mix !h (Opinion.Vector.known vec))
    done;
    for r = 0 to inst.total_rounds - 1 do
      h := set !h inst.waiting.(r)
    done
  done;
  h := mix !h (Array.length st.rejected);
  for i = 0 to Array.length st.rejected - 1 do
    h := set !h st.rejected.(i)
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(* [Array.make] is a C call; the common border sizes (spelled out up to
   five rounds) allocate inline instead.  Slots share [d] physically,
   exactly as [Array.make] would. *)
let make_slots n d =
  match n with
  | 1 -> [| d |]
  | 2 -> [| d; d |]
  | 3 -> [| d; d; d |]
  | 4 -> [| d; d; d; d |]
  | 5 -> [| d; d; d; d; d |]
  | _ -> Array.make n d

let fresh_instance ~border =
  let total_rounds = max 1 (Node_set.cardinal border - 1) in
  {
    border;
    total_rounds;
    opinions = make_slots total_rounds Opinion.Vector.empty;
    waiting = make_slots total_rounds border;
  }

(* Sends to every border node except the sender; self-delivery is applied
   synchronously by the callers. *)
let multicast_actions ~self ~border msg =
  Node_set.fold
    (fun dst acc -> if Node_id.equal dst self then acc else Send { dst; msg } :: acc)
    border []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Message delivery (lines 18-25, plus early-termination outcomes)     *)

let deliver_round cfg st ~src ~round ~view ~opinions =
  let ix = view_ix st.views view in
  let inst =
    if ix >= 0 then st.insts.(ix)
    else
      (* Line 20-22: first message for this view.  The border is
         recomputed from the shared knowledge graph (it always equals
         the [B] field carried by well-formed messages). *)
      fresh_instance ~border:(Graph.border cfg.graph view)
  in
  if round < 1 || round > inst.total_rounds then (st, [])
  else begin
    let r = round - 1 in
    let current = inst.opinions.(r) in
    let merged = Opinion.Vector.merge current ~incoming:opinions in
    let old_waiting = inst.waiting.(r) in
    (* The excused set is [src] plus the rejectors piggybacked on the
       incoming vector; prune only when one of them is actually still
       awaited, so a stale retransmission leaves the state physically
       unchanged. *)
    let rejector_hit = Opinion.Vector.rejector_in opinions old_waiting in
    let needs_prune = rejector_hit || Node_set.mem src old_waiting in
    if ix >= 0 && (not needs_prune) && merged == current then (st, [])
    else begin
      let waiting =
        if not needs_prune then old_waiting
        else if not rejector_hit then
          (* The overwhelmingly common delivery excuses only [src]: one
             bitset copy. *)
          Node_set.remove src old_waiting
        else
          (* The sender and every piggybacked rejector leave the
             waiting set: the reference oracle's own expression. *)
          Node_set.diff old_waiting
            (Node_set.add src (Opinion.Vector.rejectors opinions))
      in
      let opinions_arr = set_at inst.opinions r merged in
      let waiting_arr = set_at inst.waiting r waiting in
      let inst = { inst with opinions = opinions_arr; waiting = waiting_arr } in
      let st =
        if ix >= 0 then { st with insts = set_at st.insts ix inst }
        else
          let at = lnot ix in
          {
            st with
            views = insert_at st.views at view;
            insts = insert_at st.insts at inst;
          }
      in
      (st, [])
    end
  end

(* The single gate through which a decision is emitted.  CD1 (a node
   decides at most once) holds dynamically because of the [decided]
   branch below, and statically because the decide-once lint rule
   requires every [Decide] emission to live inside this one
   [@lint.decide_guard] binding, dominated by that branch.  Deciding
   also garbage-collects the whole instance table: no guard can fire
   once [decided] is set (rejections recreate their instance from the
   graph on demand), so the bookkeeping is dead weight — see
   DESIGN.md "Flat state" for the action-safety argument. *)
let[@lint.decide_guard] [@lint.cold] decide cfg st ~view accepts =
  match st.decided with
  | Some _ -> (st, [])
  | None ->
      let value = cfg.pick accepts in
      ( { st with decided = Some (view, value); views = [||]; insts = [||] },
        [ Decide { view; value } ] )

let deliver_outcome cfg st ~view ~border ~opinions =
  (* Close the instance: no further message for this view matters. *)
  let st =
    let ix = view_ix st.views view in
    let st =
      if ix < 0 then st
      else
        { st with views = remove_at st.views ix; insts = remove_at st.insts ix }
    in
    { st with rejected = rejected_add st.rejected view }
  in
  match Opinion.Vector.accepts ~border opinions with
  | Some accepts -> decide cfg st ~view accepts
  | None ->
      (* A failed instance: abort the local attempt if it was this one. *)
      if
        Option.is_some st.proposed
        && Option.is_none st.decided
        && Node_set.equal st.current_view view
      then ({ st with proposed = None }, [ Note (Attempt_failed view) ])
      else (st, [])

(* Measured exemption: Deliver IS the state-update path, so the
   update branches allocate the persistent records they hand back —
   what the certificate buys is a bound, not zero: the stale-message
   fast path is one result tuple (3 words, pinned by `bench alloc`),
   and the full transition sits strictly below the BENCH_PR7 ratchet
   (30.168 minor words/run) via `bench compare`. *)
let[@lint.hot_path] [@lint.allow "hot-path-alloc"] deliver cfg st ~src msg =
  let view = Message.view msg in
  if rejected_mem st view then (st, [])
  else
    match msg with
    | Message.Round { round; view; border = _; opinions } ->
        deliver_round cfg st ~src ~round ~view ~opinions
    | Message.Outcome { view; border; opinions } ->
        deliver_outcome cfg st ~view ~border ~opinions

(* ------------------------------------------------------------------ *)
(* Guard of lines 12-17: start a new consensus instance                *)

let guard_new_instance cfg st =
  match (st.proposed, st.candidate_view, st.decided) with
  | None, Some view, None when rejected_mem st view ->
      (* The candidate was already closed by a failed Outcome broadcast
         (early-stopping mode) before this node got to propose it.  In
         the base protocol the same proposal would complete instantly
         from the lingering stale messages and fail (the final vector
         contains the original rejection); short-circuit to that result.
         Rejection-closed views can never collide with the candidate:
         they are strictly lower-ranked than the proposal that rejected
         them, hence than any later candidate. *)
      Some ({ st with candidate_view = None }, [ Note (Attempt_failed view) ])
  | None, Some view, None when not (Node_set.is_empty view) ->
      let border = Graph.border cfg.graph view in
      (* Invariant (proof of CD2): the proposer borders its view. *)
      assert (Node_set.mem st.self border);
      let value = cfg.propose_value st.self view in
      let msg =
        Message.Round
          {
            round = 1;
            view;
            border;
            opinions = Opinion.Vector.singleton st.self (Opinion.Accept value);
          }
      in
      let st =
        {
          st with
          current_view = view;
          candidate_view = None;
          proposed = Some value;
          round = 1;
        }
      in
      let sends = multicast_actions ~self:st.self ~border msg in
      let st, more = deliver cfg st ~src:st.self msg in
      Some (st, (Note (Proposed view) :: sends) @ more)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Guard of lines 26-31: reject a lower-ranked view                    *)

(* Deterministic order: reject the lowest-ranked first.  The current
   view itself is in the table on every delivery — skip it by (cheap
   bitset) equality before paying for a rank computation.  Top-level
   recursion: this scan runs after every event, and a [ref]-based loop
   would allocate. *)
let rec reject_scan cfg views current n best i =
  if i >= n then best
  else
    let best =
      if
        (not (Node_set.equal views.(i) current))
        && lower cfg views.(i) current
        && (best < 0 || lower cfg views.(i) views.(best))
      then i
      else best
    in
    reject_scan cfg views current n best (i + 1)

let guard_reject cfg st =
  if Node_set.is_empty st.current_view then None
  else begin
    let best =
      reject_scan cfg st.views st.current_view (Array.length st.views) (-1) 0
    in
    if best < 0 then None
    else begin
      let view = st.views.(best) in
      let inst = st.insts.(best) in
      let msg =
        Message.Round
          {
            round = 1;
            view;
            border = inst.border;
            opinions = Opinion.Vector.singleton st.self Opinion.Reject;
          }
      in
      let st =
        {
          st with
          views = remove_at st.views best;
          insts = remove_at st.insts best;
          rejected = rejected_add st.rejected view;
        }
      in
      (* No self-delivery: the view is now in [rejected] and line 18
         would drop the message anyway. *)
      Some
        ( st,
          Note (Rejected_view view)
          :: multicast_actions ~self:st.self ~border:inst.border msg )
    end
  end

(* ------------------------------------------------------------------ *)
(* Guard of lines 32-40: round completion                              *)

let finish_instance cfg st ~border ~vector ~early =
  let view = st.current_view in
  let outcome_actions success =
    if early then
      let msg = Message.Outcome { view; border; opinions = vector } in
      Note (Early_outcome { view; success })
      :: multicast_actions ~self:st.self ~border msg
    else []
  in
  match Opinion.Vector.accepts ~border vector with
  | Some accepts ->
      (* Line 34-36: unanimous accepts — decide (through the guard). *)
      let st, decide_acts = decide cfg st ~view accepts in
      Some (st, outcome_actions true @ decide_acts)
  | None ->
      (* Line 37: failed attempt — reset and wait for view construction
         to produce a higher-ranked candidate. *)
      let st = { st with proposed = None } in
      Some (st, Note (Attempt_failed view) :: outcome_actions false)

let guard_round_completion cfg st =
  if Option.is_none st.proposed || Option.is_some st.decided then None
  else
    let ix = view_ix st.views st.current_view in
    if ix < 0 then None
    else begin
      let inst = st.insts.(ix) in
      let waiting = inst.waiting.(st.round - 1) in
      (* waiting \ locallyCrashed = ∅, without materializing the diff. *)
      if not (Node_set.subset waiting st.locally_crashed) then None
      else begin
        let vector = inst.opinions.(st.round - 1) in
        let border = inst.border in
        let full = Opinion.Vector.is_full ~border vector in
        if Int.equal st.round inst.total_rounds then
          finish_instance cfg st ~border ~vector ~early:false
        else if cfg.early_stopping && full then
          finish_instance cfg st ~border ~vector ~early:true
        else begin
          (* Lines 38-40: next round, relaying the merged vector. *)
          let round = st.round + 1 in
          let msg =
            Message.Round { round; view = st.current_view; border; opinions = vector }
          in
          let st = { st with round } in
          let sends = multicast_actions ~self:st.self ~border msg in
          let st, more = deliver cfg st ~src:st.self msg in
          Some
            ( st,
              (Note (Advanced_round { view = st.current_view; round }) :: sends)
              @ more )
        end
      end
    end

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)

let on_init cfg st = (st, [ Monitor (Graph.neighbours cfg.graph st.self) ])

(* Lines 5-11: view construction. *)
let on_crash cfg st q =
  if Node_set.mem q st.locally_crashed then (st, [])
  else begin
    let locally_crashed = Node_set.add q st.locally_crashed in
    let to_monitor = Node_set.diff (Graph.neighbours cfg.graph q) locally_crashed in
    let components = Graph.connected_components cfg.graph locally_crashed in
    let best =
      match components with
      | [] -> invalid_arg "Protocol: no crashed component"
      | first :: rest ->
          List.fold_left (fun acc c -> if lower cfg acc c then c else acc) first rest
    in
    (* One record build for both the crash-set and (when the ranking
       grew) the candidate update. *)
    let st =
      if lower cfg st.max_view best then
        { st with locally_crashed; max_view = best; candidate_view = Some best }
      else { st with locally_crashed }
    in
    (st, [ Monitor to_monitor ])
  end

(* Re-evaluates the [upon] guards (in the paper's line order) until none
   fires.  Termination: each firing either consumes the candidate view,
   removes an instance from [received], advances the bounded round
   counter, or finishes the instance. *)
let[@lint.cold] rec stabilize cfg st acc =
  match guard_new_instance cfg st with
  | Some (st, acts) -> stabilize cfg st (acc @ acts)
  | None -> (
      match guard_reject cfg st with
      | Some (st, acts) -> stabilize cfg st (acc @ acts)
      | None -> (
          match guard_round_completion cfg st with
          | Some (st, acts) -> stabilize cfg st (acc @ acts)
          | None -> (st, acc)))

(* The new-instance and reject guards read only [proposed],
   [candidate_view], [decided], the [views] spine, [rejected],
   [current_view] and the ranking — when an event left all of those
   physically unchanged (a delivery that merged into an existing
   instance, a crash that grew [locally_crashed] without raising the
   candidate), they were stable before and still are; only round
   completion (which also reads instance contents and
   [locally_crashed]) needs a re-check. *)
let[@lint.hot_path] scan_inputs_unchanged st0 st =
  st0.views == st.views
  && st0.rejected == st.rejected
  && st0.proposed == st.proposed
  && st0.candidate_view == st.candidate_view
  && st0.decided == st.decided

let handle cfg st event =
  let st0 = st in
  (* Keep the callee's result pair for the no-guard-fired returns below:
     rebuilding an identical tuple is 3 minor words on every stale
     retransmission and every merged-but-stable delivery. *)
  let ((st, acts) as result) =
    match event with
    | Init -> on_init cfg st
    | Crash q -> on_crash cfg st q
    | Deliver { src; msg } -> deliver cfg st ~src msg
  in
  (* Every state [handle] returns is guard-stable (stabilize ran before
     it was handed out), and the guards read only the state — so an
     event that left the state physically unchanged cannot have enabled
     one, whatever actions it emitted: skip the re-scan.  This covers
     stale retransmissions, duplicate crash notifications and [Init]
     (whose [Monitor] action leaves the fresh state untouched). *)
  if st == st0 then result
  else if scan_inputs_unchanged st0 st then
    match guard_round_completion cfg st with
    | Some (st, more) -> stabilize cfg st (acts @ more)
    | None -> result
  else stabilize cfg st acts
