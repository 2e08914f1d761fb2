open Cliffedge_graph

type 'v t =
  | Accept of 'v
  | Reject

let equal eq_value a b =
  match (a, b) with
  | Accept va, Accept vb -> eq_value va vb
  | Reject, Reject -> true
  | Accept _, Reject | Reject, Accept _ -> false

let pp pp_value ppf = function
  | Accept v -> Format.fprintf ppf "accept(%a)" pp_value v
  | Reject -> Format.fprintf ppf "reject"

type 'v opinion = 'v t

module Vector = struct
  (* Flat sorted-array representation: [ks] holds the node ids in
     strictly increasing order, [vs.(i)] the opinion of [ks.(i)].  The
     arrays are immutable after construction (copy-on-merge), so
     vectors share freely between protocol states, messages and the
     mcheck explorer exactly like the old [Node_map]-backed ones — but
     a merge is one pair of contiguous arrays instead of a rebalanced
     AVL path, and lookups are binary searches with no pointer
     chasing. *)
  type 'v t = { ks : Node_id.t array; vs : 'v opinion array }

  let empty = { ks = [||]; vs = [||] }

  let singleton p op = { ks = [| p |]; vs = [| op |] }

  let of_list entries =
    (* Stable sort + last-binding-wins, matching [Node_map.of_list]. *)
    let keyed = Array.of_list entries in
    let n = Array.length keyed in
    if n = 0 then empty
    else begin
      Array.stable_sort
        (fun (a, _) (b, _) -> Int.compare (Node_id.to_int a) (Node_id.to_int b))
        keyed;
      let distinct = ref 1 in
      for i = 1 to n - 1 do
        if not (Node_id.equal (fst keyed.(i)) (fst keyed.(i - 1))) then
          incr distinct
      done;
      let ks = Array.make !distinct (fst keyed.(0)) in
      let vs = Array.make !distinct Reject in
      let o = ref (-1) in
      for i = 0 to n - 1 do
        let k, op = keyed.(i) in
        if !o < 0 || not (Node_id.equal ks.(!o) k) then incr o;
        ks.(!o) <- k;
        vs.(!o) <- op
      done;
      { ks; vs }
    end

  (* Binary search for [p] in [ks]; negative when absent.  Top-level
     recursive with explicit arguments (registers: without flambda a
     [ref]-based loop heap-allocates its cells and a nested [let rec]
     allocates a closure per call): this is the delivery path's inner
     lookup. *)
  let rec find_ix_go ks k lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let km = Node_id.to_int (Array.unsafe_get ks mid) in
      if Int.equal km k then mid
      else if km < k then find_ix_go ks k (mid + 1) hi
      else find_ix_go ks k lo (mid - 1)

  let find_ix ks p = find_ix_go ks (Node_id.to_int p) 0 (Array.length ks - 1)

  let get t p =
    let i = find_ix t.ks p in
    if i < 0 then None else Some t.vs.(i)

  (* First pass of [merge]: count the keys [incoming] adds.  Top-level
     recursive with index arguments for the same no-flambda reason as
     [find_ix_go]. *)
  let rec merge_count tks iks n m i j fresh =
    if j >= m then fresh
    else
      let k = Node_id.to_int (Array.unsafe_get iks j) in
      if i < n && Node_id.to_int (Array.unsafe_get tks i) < k then
        merge_count tks iks n m (i + 1) j fresh
      else if i < n && Int.equal (Node_id.to_int (Array.unsafe_get tks i)) k then
        merge_count tks iks n m i (j + 1) fresh
      else merge_count tks iks n m i (j + 1) (fresh + 1)

  (* Second pass: merge-join into the preallocated output; on a shared
     key the existing binding wins (line 24 of Algorithm 1 only ever
     fills ⊥ slots). *)
  let rec merge_fill t incoming n m ks vs i j o =
    if i >= n && j >= m then ()
    else if
      j >= m
      || (i < n && Node_id.to_int t.ks.(i) <= Node_id.to_int incoming.ks.(j))
    then begin
      let j = if j < m && Node_id.equal t.ks.(i) incoming.ks.(j) then j + 1 else j in
      ks.(o) <- t.ks.(i);
      vs.(o) <- t.vs.(i);
      merge_fill t incoming n m ks vs (i + 1) j (o + 1)
    end
    else begin
      ks.(o) <- incoming.ks.(j);
      vs.(o) <- incoming.vs.(j);
      merge_fill t incoming n m ks vs i (j + 1) (o + 1)
    end

  (* The no-change paths (already-known singleton, [fresh = 0]) return
     [t] physically and allocate nothing: `bench alloc`'s "opinion
     vector merge (no-change)" row holds them at 0 minor words/op.  The
     fresh-key branch allocates the two literal arrays and the record
     (~3 words per fresh opinion plus 6 fixed), bounded by the border
     size and paid only on first sight of a vote. *)
  let merge t ~incoming =
    let n = Array.length t.ks and m = Array.length incoming.ks in
    if m = 0 then t
    else if n = 0 then incoming
    else if Int.equal m 1 && find_ix t.ks incoming.ks.(0) >= 0 then
      (* Protocol messages overwhelmingly carry one opinion (a node's
         own vote or rejection), and on retransmissions it is already
         known: one binary search settles the no-change case without
         either join pass. *)
      t
    else begin
      (* The common case on later rounds — everything already known —
         returns [t] unchanged, with no allocation at all. *)
      let fresh = merge_count t.ks incoming.ks n m 0 0 0 in
      if fresh = 0 then t
      else begin
        (* Literal allocations for the small sizes ([Array.make] is a C
           call, ~4x the cost of an inline minor-heap bump); borders are
           a handful of nodes in every workload. *)
        let small_make len d =
          match len with
          | 2 -> [| d; d |]
          | 3 -> [| d; d; d |]
          | 4 -> [| d; d; d; d |]
          | 5 -> [| d; d; d; d; d |]
          | _ -> Array.make len d
        in
        let len = n + fresh in
        let ks = small_make len t.ks.(0) and vs = small_make len Reject in
        merge_fill t incoming n m ks vs 0 0 0;
        { ks; vs }
      end
    end

  let iter f t =
    for i = 0 to Array.length t.ks - 1 do
      f t.ks.(i) t.vs.(i)
    done

  let fold f t acc =
    let acc = ref acc in
    for i = 0 to Array.length t.ks - 1 do
      acc := f t.ks.(i) t.vs.(i) !acc
    done;
    !acc

  (* Specialised to a set argument (rather than a predicate closure) so
     the delivery fast path allocates nothing while deciding whether an
     excusal rebuild is needed at all. *)
  let rec rejector_in_go ks vs n set i =
    i < n
    && ((match Array.unsafe_get vs i with
        | Reject -> Node_set.mem (Array.unsafe_get ks i) set
        | Accept _ -> false)
       || rejector_in_go ks vs n set (i + 1))

  let rejector_in t set = rejector_in_go t.ks t.vs (Array.length t.ks) set 0

  let rejectors t =
    let acc = ref Node_set.empty in
    for i = 0 to Array.length t.ks - 1 do
      match t.vs.(i) with
      | Reject -> acc := Node_set.add t.ks.(i) !acc
      | Accept _ -> ()
    done;
    !acc

  let is_full ~border t =
    Array.length t.ks >= Node_set.cardinal border
    && Node_set.for_all (fun p -> find_ix t.ks p >= 0) border

  exception Voided

  let accepts ~border t =
    match
      let acc = ref [] in
      Node_set.iter
        (fun p ->
          match get t p with
          | Some (Accept v) -> acc := (p, v) :: !acc
          | Some Reject | None -> raise Voided)
        border;
      !acc
    with
    | accs -> Some (List.rev accs)
    | exception Voided -> None

  let known t = Array.length t.ks

  let equal eq_value a b =
    a == b
    || Int.equal (Array.length a.ks) (Array.length b.ks)
       && (let ok = ref true in
           for i = 0 to Array.length a.ks - 1 do
             ok :=
               !ok
               && Node_id.equal a.ks.(i) b.ks.(i)
               && equal eq_value a.vs.(i) b.vs.(i)
           done;
           !ok)

  (* Same rendering as the old [Node_map.pp]-backed vectors, so traces
     and fingerprints are stable across the representation change. *)
  let pp pp_value ppf t =
    let pp_binding ppf i =
      Format.fprintf ppf "%a -> %a" Node_id.pp t.ks.(i) (pp pp_value) t.vs.(i)
    in
    Format.fprintf ppf "[@[%a@]]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
         pp_binding)
      (List.init (Array.length t.ks) Fun.id)
end
