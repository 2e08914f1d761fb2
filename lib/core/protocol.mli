(** Algorithm 1 of the paper: convergent detection of crashed regions.

    The protocol is implemented as a {e pure} state machine: a node is a
    value of type ['v state]; feeding it an {!event} (initialisation, a
    failure-detector notification, a message delivery) yields a new state
    and a list of {!action}s for the environment to execute (subscribe to
    the failure detector, send messages, announce a decision).  Purity
    makes the machine directly checkable with property-based tests and
    lets any transport — our deterministic simulator, or a real network —
    drive it.

    {2 Faithfulness}

    The code mirrors Algorithm 1 line by line:

    - view construction (lines 5–11) maintains [locallyCrashed],
      transitively widens the failure-detector subscription, and promotes
      the highest-ranked connected component to [candidateView];
    - a new flooding consensus instance starts per proposed view
      (lines 12–17), running [max 1 (|border V| - 1)] rounds among
      [border V] (the paper indexes rounds [1 <= r < |B|]; the degenerate
      sole-border-node case is completed in its single self-round);
    - deliveries merge opinion vectors, only ever filling [⊥] slots, and
      shrink the per-round waiting sets (lines 18–25);
    - a node that knows a view strictly lower-ranked than its own
      proposal rejects it (lines 26–31) and ignores it from then on;
    - rounds complete when every non-crashed participant has been heard
      from (lines 32–40); a full unanimous-accept final vector decides
      via the deterministic pick, anything else aborts the attempt and
      the node waits for its view construction to produce a higher
      candidate.

    The [upon] guards of lines 12, 26 and 32 are state predicates: after
    every event the machine re-evaluates them (in the paper's line
    order) until quiescence, so one delivery may trigger a rejection, a
    round advance and a decision in a single {!handle} call.

    {2 Early termination (default)}

    With [early_stopping = true] (the default since the flat-state
    rewrite; the base protocol stays available behind
    [~early_stopping:false] / the CLI's [--no-early-termination]) the
    machine adds the footnote-6
    optimization: an instance finishes as soon as a round completes with
    a {e full} vector (no [⊥]) — sound because an opinion, once recorded,
    is immutable and globally unique per (view, participant), so any two
    full vectors for a view are equal.  To keep laggards from waiting for
    rounds an early-terminated peer will never send, the finishing node
    broadcasts a closing {!Message.Outcome} carrying the full vector;
    receivers adopt the outcome immediately.  This exchanges one extra
    broadcast for up to [|B| - 2] saved rounds and is measured in
    experiment X8. *)

open Cliffedge_graph

(** {1 Configuration} *)

type 'v config = {
  graph : Graph.t;  (** the shared knowledge graph [G] *)
  propose_value : Node_id.t -> View.t -> 'v;
      (** the paper's [selectValueForView]: the value (e.g. repair plan)
          this node proposes for a view *)
  pick : (Node_id.t * 'v) list -> 'v;
      (** the paper's [deterministicPick], applied to the unanimous
          accepts of a full final vector, in increasing node order; must
          be a function of its argument only so that all border nodes
          pick the same value *)
  rank : View.t -> View.t -> int;
      (** the ranking [≺] of §3.1; must be a strict total order on
          regions that subsumes strict inclusion and be identical at
          every node.  Default: {!Cliffedge_graph.Ranking.compare} over
          [graph]; the free tiebreak the paper allows is exercised by
          the property suite. *)
  early_stopping : bool;  (** footnote-6 fast path, see above *)
}
(** Every node of a run shares one config; it holds no mutable state of
    its own. *)

val default_pick : (Node_id.t * 'v) list -> 'v
(** The value proposed by the smallest border node.
    @raise Invalid_argument on the empty list. *)

val config :
  ?early_stopping:bool ->
  ?pick:((Node_id.t * 'v) list -> 'v) ->
  ?rank:(View.t -> View.t -> int) ->
  graph:Graph.t ->
  propose_value:(Node_id.t -> View.t -> 'v) ->
  unit ->
  'v config
(** Convenience constructor; [early_stopping] defaults to [true] (the
    footnote-6 fast path — pass [~early_stopping:false] for the base
    protocol), [pick] to {!default_pick}, [rank] to the paper's ranking
    over [graph]. *)

(** {1 Events and actions} *)

type 'v event =
  | Init  (** protocol start (line 1) *)
  | Crash of Node_id.t  (** failure-detector notification (line 5) *)
  | Deliver of { src : Node_id.t; msg : 'v Message.t }
      (** message delivery (line 18) *)

(** Instrumentation breadcrumbs, for experiments and debugging; they
    carry no protocol obligation. *)
type note =
  | Proposed of View.t  (** started a consensus instance (line 17) *)
  | Rejected_view of View.t  (** sent a rejection (line 31) *)
  | Attempt_failed of View.t  (** instance completed non-unanimous (line 37) *)
  | Advanced_round of { view : View.t; round : int }  (** line 40 *)
  | Early_outcome of { view : View.t; success : bool }
      (** early-termination broadcast sent *)

type 'v action =
  | Monitor of Node_set.t  (** subscribe to crashes ([monitorCrash]) *)
  | Send of { dst : Node_id.t; msg : 'v Message.t }
      (** point-to-point send (multicasts arrive expanded) *)
  | Decide of { view : View.t; value : 'v }  (** the [decide] event *)
  | Note of note

(** {1 The machine} *)

type 'v state

val init : self:Node_id.t -> 'v state
(** Pristine node state (line 2–3); feed {!Init} to start. *)

val handle : 'v config -> 'v state -> 'v event -> 'v state * 'v action list
(** One transition.  Actions are returned in issue order; sends to
    [self] never appear (self-deliveries are applied internally and
    synchronously, as the guard of line 32 expects). *)

(** {1 Introspection} (read-only views of the state, for tests,
    checkers and experiments) *)

val self : 'v state -> Node_id.t

val decided : 'v state -> (View.t * 'v) option

val has_live_proposal : 'v state -> bool
(** [proposed <> ⊥]: an instance is currently running. *)

val current_view : 'v state -> View.t option
(** The last proposed view [Vp], [None] before the first proposal. *)

val current_round : 'v state -> int
(** Round of the running instance; [0] before the first proposal. *)

val locally_crashed : 'v state -> Node_set.t

val max_view : 'v state -> View.t
(** Highest-ranked crashed region known so far (empty initially). *)

val candidate_view : 'v state -> View.t option
(** Pending candidate not yet proposed. *)

val known_views : 'v state -> View.t list
(** Views with live instance bookkeeping ([received]). *)

val rejected_views : 'v state -> View.t list

val waiting_on : 'v state -> Node_set.t option
(** Participants still awaited in the current round of the node's own
    instance ([None] when no instance is running). *)

val pp_state :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v state -> unit

val fingerprint : ('v -> int) -> 'v state -> int
(** [fingerprint value_fp st] hashes the full state: every field in a
    fixed order, sets through {!Cliffedge_graph.Node_set.hash}, values
    through [value_fp], each option tagged and each variable-length
    part framed by its length.  Behaviourally identical states have
    equal fingerprints; when [value_fp] separates distinct values,
    distinct states collide with probability about 2{^-63} per pair.
    Used by the exhaustive model checker
    ({!Cliffedge_mcheck.Explorer}) to deduplicate visited
    configurations, once per step of the node that stepped. *)

val mix : int -> int -> int
(** [mix h x] folds [x] into the running fingerprint [h]: the one
    mixing step of {!fingerprint}, for callers that combine state
    fingerprints into a larger one. *)
