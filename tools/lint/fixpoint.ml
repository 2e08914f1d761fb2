(* Generic worklist fixpoint solver — the monotone-framework core under
   the interprocedural rules (and the CFG dominator computation, which
   instantiates it with the intersection lattice).

   The solver is demand-driven in the Goblint style: the transfer
   function for a key reads the current values of other keys through the
   [get] callback it is handed, and every such read is recorded as a
   dynamic dependency edge.  When a key's value later rises, exactly the
   transfers that read it are re-queued — there is no static dependency
   declaration, so call graphs with summaries, CFG node equations and
   reachability closures all fit the same interface.

   Chaotic iteration over monotone transfers on a finite-height lattice
   converges to the least fixpoint regardless of processing order, so
   the result is independent of the seeding permutation; the qcheck
   suite (test_lint_fixpoint.ml) checks both the order-independence and
   the fixpoint property on randomly generated monotone functions. *)

module type LATTICE = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

exception Diverged of string

(* The two-point lattice: reachability and taint closures. *)
module Bool_lattice = struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
end

module Make (L : LATTICE) = struct
  type stats = { iterations : int }

  let solve ~(keys : string list) ~(transfer : (string -> L.t) -> string -> L.t)
      : (string -> L.t) * stats =
    let value : (string, L.t) Hashtbl.t = Hashtbl.create 64 in
    let read v = match Hashtbl.find_opt value v with Some x -> x | None -> L.bottom in
    (* dependents k = keys whose transfer read k during their last run *)
    let dependents : (string, string list) Hashtbl.t = Hashtbl.create 64 in
    let queue = Queue.create () in
    let queued : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    let enqueue k =
      if not (Hashtbl.mem queued k) then begin
        Hashtbl.replace queued k ();
        Queue.add k queue
      end
    in
    List.iter enqueue keys;
    (* Finite-height lattices terminate far below this; the bound turns a
       non-monotone transfer (a rule bug) into an exception instead of a
       hang. *)
    let budget = 1000 * (List.length keys + 16) in
    let iterations = ref 0 in
    while not (Queue.is_empty queue) do
      incr iterations;
      if !iterations > budget then
        raise
          (Diverged
             (Printf.sprintf "no fixpoint after %d iterations over %d key(s)"
                !iterations (List.length keys)));
      let k = Queue.pop queue in
      Hashtbl.remove queued k;
      let get dep =
        (* Record the dynamic edge dep -> k, deduplicated. *)
        let deps = Option.value ~default:[] (Hashtbl.find_opt dependents dep) in
        if not (List.exists (String.equal k) deps) then
          Hashtbl.replace dependents dep (k :: deps);
        read dep
      in
      let old = read k in
      (* Join with the previous value: the stored sequence is ascending
         even if a transfer misbehaves, which keeps termination honest. *)
      let next = L.join old (transfer get k) in
      if not (L.equal old next) then begin
        Hashtbl.replace value k next;
        List.iter enqueue
          (Option.value ~default:[] (Hashtbl.find_opt dependents k))
      end
    done;
    (read, { iterations = !iterations })
end
