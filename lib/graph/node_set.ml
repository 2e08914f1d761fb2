module Prng = Cliffedge_prng.Prng

type elt = Node_id.t

(* Sparse chunked bitset: sorted (word index, word) pairs in one flat
   [int array].  Slot [2k] holds a word index [w] and slot [2k + 1] the
   word whose bit [b] is set iff [w * word_bits + b] is a member.
   Canonical form: the indices ascend strictly and every stored word is
   non-zero (the empty set is [[||]]), so structural equality of arrays
   coincides with set equality and every set has exactly one
   representation.  A set costs two ints per non-zero word, never more
   than twice its cardinality, whatever its largest id.  Arrays are
   never mutated after construction. *)
type t = int array

let word_bits = Sys.int_size

let empty = [||]

let is_empty t = Array.length t = 0

(* ------------------------------------------------------------------ *)
(* Word-level helpers                                                  *)

(* SWAR masks built by doubling: hex literals wider than [max_int] are
   rejected by the compiler, so the 63-bit patterns are assembled from
   32-bit halves. *)
let m1 = 0x55555555 lor (0x55555555 lsl 32)
let m2 = 0x33333333 lor (0x33333333 lsl 32)
let m4 = 0x0F0F0F0F lor (0x0F0F0F0F lsl 32)
let h01 = 0x01010101 lor (0x01010101 lsl 32)

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

(* Index of the lowest set bit ([x] must have exactly the candidate bit
   isolated first: [ntz (x land (-x))]). *)
let ntz bit = popcount (bit - 1)

(* Index of the highest set bit of a non-zero word. *)
let msb x =
  let r = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin r := !r + 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin r := !r + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin r := !r + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin r := !r + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin r := !r + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then incr r;
  !r

(* Bits of [x] strictly above position [b]. *)
let bits_above b x = if b >= word_bits - 1 then 0 else (x lsr (b + 1)) lsl (b + 1)

(* Slot of word index [w] in [t], or -1.  Binary search over the pairs
   [lo, hi]; top-level recursion, so the probe allocates nothing. *)
let rec find_go t w lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get t (2 * mid) in
    if Int.equal m w then 2 * mid
    else if m < w then find_go t w (mid + 1) hi
    else find_go t w lo (mid - 1)

let find t w = find_go t w 0 ((Array.length t lsr 1) - 1)

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

(* Sets of one or two pairs, which cover 63 or 126 consecutive ids and
   so nearly every set of the benchmark topologies' hot paths, get
   answered without a search. *)
let mem x t =
  let i = Node_id.to_int x in
  let w = i / word_bits and len = Array.length t in
  let s =
    if len > 4 then find t w
    else if len >= 2 && Int.equal (Array.unsafe_get t 0) w then 0
    else if Int.equal len 4 && Int.equal (Array.unsafe_get t 2) w then 2
    else -1
  in
  s >= 0 && (Array.unsafe_get t (s + 1) lsr (i mod word_bits)) land 1 = 1

let singleton x =
  let i = Node_id.to_int x in
  [| i / word_bits; 1 lsl (i mod word_bits) |]

(* ------------------------------------------------------------------ *)
(* Pair-merging queries                                                *)

(* Top-level recursion with explicit arguments: a nested [let rec]
   allocates its closure on every call without flambda, and these run
   on the protocol's delivery path.  Each walks the two pair lists in
   step, like a sorted-list merge. *)
let rec disjoint_go a b la lb i j =
  i >= la
  || j >= lb
  ||
  let ia = Array.unsafe_get a i and ib = Array.unsafe_get b j in
  if Int.equal ia ib then
    Array.unsafe_get a (i + 1) land Array.unsafe_get b (j + 1) = 0
    && disjoint_go a b la lb (i + 2) (j + 2)
  else if ia < ib then disjoint_go a b la lb (i + 2) j
  else disjoint_go a b la lb i (j + 2)

let disjoint a b =
  disjoint_go a b (Array.length a) (Array.length b) 0 0

let rec subset_go a b la lb i j =
  i >= la
  || (j < lb
     &&
     let ia = Array.unsafe_get a i and ib = Array.unsafe_get b j in
     if Int.equal ia ib then
       Array.unsafe_get a (i + 1) land lnot (Array.unsafe_get b (j + 1)) = 0
       && subset_go a b la lb (i + 2) (j + 2)
     else ia > ib && subset_go a b la lb i (j + 2))

(* Every non-zero word of a subset is a non-zero word of the superset,
   so a subset never has more pairs. *)
let subset a b =
  let la = Array.length a and lb = Array.length b in
  la <= lb && subset_go a b la lb 0 0

(* Canonical form makes slot-wise equality coincide with set equality.
   Monomorphic loop rather than polymorphic [=]: the generic comparator
   is a C call that re-discovers the array shape on every invocation,
   and [equal] sits on the reject-scan and instance-lookup paths. *)
let rec equal_go a b i =
  i < 0 || (Int.equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_go a b (i - 1))

let equal a b =
  a == b
  || (Int.equal (Array.length a) (Array.length b) && equal_go a b (Array.length a - 1))

(* Lexicographic order on the ascending element sequences, matching
   [Set.Make(Node_id).compare] bit for bit — the region ranking uses it
   as final tie-break, so it must not drift.  Both sets agree on the
   pairs before slot [i]; write [m] for the smallest element of the
   symmetric difference, owned, say, by [a].  Then [a < b] iff [b]
   still has an element above [m] (then [b]'s sequence is larger at
   that position), and [a > b] iff it does not (then [b] is a strict
   prefix of [a]).  A pair only one side has at slot [i] holds [m], and
   the other side's next pair lies above it. *)
let rec compare_go a b la lb i =
  if i >= la then if i >= lb then 0 else -1
  else if i >= lb then 1
  else
    let ia = Array.unsafe_get a i and ib = Array.unsafe_get b i in
    if ia < ib then -1
    else if ia > ib then 1
    else
      let wa = Array.unsafe_get a (i + 1) and wb = Array.unsafe_get b (i + 1) in
      if Int.equal wa wb then compare_go a b la lb (i + 2)
      else
        let bit = let x = wa lxor wb in x land -x in
        let p = ntz bit in
        let in_a = wa land bit <> 0 in
        (* Branch on [in_a] twice rather than binding an (other_len,
           other_word) pair: the conditional tuple would be a per-call
           allocation, over the 0-word budget of `bench alloc`'s
           node-set row. *)
        let has_greater =
          if in_a then bits_above p wb <> 0 || lb > i + 2
          else bits_above p wa <> 0 || la > i + 2
        in
        if in_a then if has_greater then -1 else 1
        else if has_greater then 1
        else -1

let compare a b =
  if a == b then 0 else compare_go a b (Array.length a) (Array.length b) 0

let cardinal t =
  let c = ref 0 in
  for s = 0 to (Array.length t lsr 1) - 1 do
    c := !c + popcount t.((2 * s) + 1)
  done;
  !c

(* ------------------------------------------------------------------ *)
(* Pair-merging set algebra                                            *)

(* The general cases of [union], [inter] and [diff] are merge walks
   over the two pair lists.  Each runs twice: with an empty [r] it only
   counts the result's slots, then it writes them into an array of
   exactly that size. *)

(* A zeroed array of [n] slots.  The one- and two-pair sizes are
   literals, which allocate inline where [Array.make] is a C call. *)
let alloc n =
  if Int.equal n 2 then [| 0; 0 |] else if Int.equal n 4 then [| 0; 0; 0; 0 |] else Array.make n 0

type op = Inter | Diff

(* [inter] and [diff] keep no index [a] lacks: one pass over [a]'s pairs
   with a cursor into [b].  Returns the result's slot count, or -1 when
   no word of [a] changed (the result is [a] itself). *)
let keep_pass op a b r =
  let la = Array.length a and lb = Array.length b in
  let write = Array.length r > 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 and changed = ref false in
  while !i < la do
    let ia = Array.unsafe_get a !i and wa = Array.unsafe_get a (!i + 1) in
    while !j < lb && Array.unsafe_get b !j < ia do
      j := !j + 2
    done;
    let wb =
      if !j < lb && Int.equal (Array.unsafe_get b !j) ia then Array.unsafe_get b (!j + 1)
      else 0
    in
    let x = match op with Inter -> wa land wb | Diff -> wa land lnot wb in
    if not (Int.equal x wa) then changed := true;
    if x <> 0 then begin
      if write then begin
        Array.unsafe_set r !k ia;
        Array.unsafe_set r (!k + 1) x
      end;
      k := !k + 2
    end;
    i := !i + 2
  done;
  if !changed then !k else -1

let keep op a b =
  match keep_pass op a b empty with
  | -1 -> a
  | 0 -> empty
  | k ->
      let r = alloc k in
      ignore (keep_pass op a b r);
      r

(* Slots of the union of the pairs from [a]'s slot [i] and [b]'s slot
   [j] on, written into [r] from slot [k]. *)
let rec union_go a b la lb r i j k =
  if i >= la && j >= lb then k
  else
    let c =
      if j >= lb then -1
      else if i >= la then 1
      else Int.compare (Array.unsafe_get a i) (Array.unsafe_get b j)
    in
    if Array.length r > 0 then
      if c < 0 then begin
        Array.unsafe_set r k (Array.unsafe_get a i);
        Array.unsafe_set r (k + 1) (Array.unsafe_get a (i + 1))
      end
      else if c > 0 then begin
        Array.unsafe_set r k (Array.unsafe_get b j);
        Array.unsafe_set r (k + 1) (Array.unsafe_get b (j + 1))
      end
      else begin
        Array.unsafe_set r k (Array.unsafe_get a i);
        Array.unsafe_set r (k + 1) (Array.unsafe_get a (i + 1) lor Array.unsafe_get b (j + 1))
      end;
    union_go a b la lb r (if c <= 0 then i + 2 else i) (if c >= 0 then j + 2 else j) (k + 2)

(* The one-pair cases below get literal allocations and no merge
   loop: every set of a topology with fewer than 64 nodes is one pair. *)
let union a b =
  if a == b then a
  else
    let la = Array.length a and lb = Array.length b in
    if Int.equal la 0 then b
    else if Int.equal lb 0 then a
    else if Int.equal la 2 && Int.equal lb 2 then begin
      let ia = a.(0) and wa = a.(1) and ib = b.(0) and wb = b.(1) in
      if Int.equal ia ib then
        if wb land lnot wa = 0 then a
        else if wa land lnot wb = 0 then b
        else [| ia; wa lor wb |]
      else if ia < ib then [| ia; wa; ib; wb |]
      else [| ib; wb; ia; wa |]
    end
    (* Returning an operand unchanged keeps sharing (and the border
       cache) effective. *)
    else if subset b a then a
    else if subset a b then b
    else begin
      let r = alloc (union_go a b la lb empty 0 0 0) in
      ignore (union_go a b la lb r 0 0 0);
      r
    end

let inter a b =
  if a == b then a
  else
    let la = Array.length a and lb = Array.length b in
    if Int.equal la 0 || Int.equal lb 0 then empty
    else if Int.equal la 2 && Int.equal lb 2 then
      if not (Int.equal a.(0) b.(0)) then empty
      else
        let v = a.(1) land b.(1) in
        if Int.equal v 0 then empty
        else if Int.equal v a.(1) then a
        else if Int.equal v b.(1) then b
        else [| a.(0); v |]
    else keep Inter a b

let diff a b =
  if a == b then empty
  else
    let la = Array.length a and lb = Array.length b in
    if Int.equal la 0 || Int.equal lb 0 then a
    else if Int.equal la 2 && Int.equal lb 2 then
      if not (Int.equal a.(0) b.(0)) then a
      else
        let v = a.(1) land lnot b.(1) in
        if Int.equal v 0 then empty else if Int.equal v a.(1) then a else [| a.(0); v |]
    else keep Diff a b

(* Element-wise updates copy the array once, splicing a pair in or out
   when the member's word appears or empties; a one-pair set gets a
   literal instead, as [Array.make] is a C call. *)
let add x t =
  if mem x t then t
  else
    let i = Node_id.to_int x in
    let w = i / word_bits and bit = 1 lsl (i mod word_bits) in
    let len = Array.length t in
    if Int.equal len 0 then [| w; bit |]
    else if Int.equal len 2 then
      if Int.equal t.(0) w then [| w; t.(1) lor bit |]
      else if t.(0) < w then [| t.(0); t.(1); w; bit |]
      else [| w; bit; t.(0); t.(1) |]
    else
      (* First slot whose index is not below [w]. *)
      let s = ref 0 in
      while !s < len && t.(!s) < w do
        s := !s + 2
      done;
      if !s < len && Int.equal t.(!s) w then begin
        let r = Array.copy t in
        r.(!s + 1) <- t.(!s + 1) lor bit;
        r
      end
      else begin
        let r = Array.make (len + 2) w in
        Array.blit t 0 r 0 !s;
        r.(!s + 1) <- bit;
        Array.blit t !s r (!s + 2) (len - !s);
        r
      end

let remove x t =
  if not (mem x t) then t
  else
    let i = Node_id.to_int x in
    let s = find t (i / word_bits) in
    let v = t.(s + 1) lxor (1 lsl (i mod word_bits)) in
    let len = Array.length t in
    if Int.equal len 2 then if Int.equal v 0 then empty else [| t.(0); v |]
    else if v <> 0 then begin
      let r = Array.copy t in
      r.(s + 1) <- v;
      r
    end
    else begin
      let r = Array.make (len - 2) 0 in
      Array.blit t 0 r 0 s;
      Array.blit t (s + 2) r s (len - s - 2);
      r
    end

(* ------------------------------------------------------------------ *)
(* Iteration (always in ascending element order, like Set.Make)        *)

let iter f t =
  for s = 0 to (Array.length t lsr 1) - 1 do
    let base = t.(2 * s) * word_bits in
    let x = ref t.((2 * s) + 1) in
    while !x <> 0 do
      let bit = !x land - !x in
      f (Node_id.of_int (base + ntz bit));
      x := !x land (!x - 1)
    done
  done

(* [fold], [exists] and [for_all] walk the pairs by top-level recursion
   over explicit arguments, so a call allocates only what its function
   does: [s] is the slot of the current pair and [x] the bits of its
   word not yet visited, lowest first. *)
let rec fold_go f t s x acc =
  if x <> 0 then
    let p = Node_id.of_int ((Array.unsafe_get t s * word_bits) + ntz (x land -x)) in
    fold_go f t s (x land (x - 1)) (f p acc)
  else if s + 2 < Array.length t then fold_go f t (s + 2) (Array.unsafe_get t (s + 3)) acc
  else acc

let fold f t init = if is_empty t then init else fold_go f t 0 (Array.unsafe_get t 1) init

let rec exists_go p t s x =
  if x <> 0 then
    p (Node_id.of_int ((Array.unsafe_get t s * word_bits) + ntz (x land -x)))
    || exists_go p t s (x land (x - 1))
  else s + 2 < Array.length t && exists_go p t (s + 2) (Array.unsafe_get t (s + 3))

let exists p t = (not (is_empty t)) && exists_go p t 0 (Array.unsafe_get t 1)

let rec for_all_go p t s x =
  if x <> 0 then
    p (Node_id.of_int ((Array.unsafe_get t s * word_bits) + ntz (x land -x)))
    && for_all_go p t s (x land (x - 1))
  else s + 2 >= Array.length t || for_all_go p t (s + 2) (Array.unsafe_get t (s + 3))

let for_all p t = is_empty t || for_all_go p t 0 (Array.unsafe_get t 1)

(* Descending iteration: builds [elements] without a reversal. *)
let rev_iter f t =
  for s = (Array.length t lsr 1) - 1 downto 0 do
    let base = t.(2 * s) * word_bits in
    let x = ref t.((2 * s) + 1) in
    while !x <> 0 do
      let b = msb !x in
      f (Node_id.of_int (base + b));
      x := !x land lnot (1 lsl b)
    done
  done

let elements t =
  let res = ref [] in
  rev_iter (fun x -> res := x :: !res) t;
  !res

let min_elt_opt t =
  if is_empty t then None
  else Some (Node_id.of_int ((t.(0) * word_bits) + ntz (t.(1) land -t.(1))))

let max_elt_opt t =
  let len = Array.length t in
  if Int.equal len 0 then None
  else Some (Node_id.of_int ((t.(len - 2) * word_bits) + msb t.(len - 1)))

(* ------------------------------------------------------------------ *)
(* Bulk construction and filtering                                     *)

let of_list l =
  match l with
  | [] -> empty
  | [ x ] -> singleton x
  | _ ->
      let l = List.sort_uniq Node_id.compare l in
      let pairs = ref 0 and last = ref (-1) in
      List.iter
        (fun p ->
          let w = Node_id.to_int p / word_bits in
          if not (Int.equal w !last) then begin
            incr pairs;
            last := w
          end)
        l;
      let r = Array.make (2 * !pairs) 0 in
      let k = ref (-2) in
      List.iter
        (fun p ->
          let i = Node_id.to_int p in
          let w = i / word_bits in
          if !k < 0 || not (Int.equal r.(!k) w) then begin
            k := !k + 2;
            r.(!k) <- w
          end;
          r.(!k + 1) <- r.(!k + 1) lor (1 lsl (i mod word_bits)))
        l;
      r

(* Calls [p] on the members in ascending order ([random_subset] draws
   from its stream in that order), and hands [t] back physically when
   every member is kept. *)
let filter p t =
  let len = Array.length t in
  if Int.equal len 0 then t
  else begin
    let r = Array.make len 0 in
    let k = ref 0 and dropped = ref false in
    for s = 0 to (len lsr 1) - 1 do
      let base = t.(2 * s) * word_bits in
      let x = ref t.((2 * s) + 1) and kept = ref 0 in
      while !x <> 0 do
        let bit = !x land - !x in
        if p (Node_id.of_int (base + ntz bit)) then kept := !kept lor bit
        else dropped := true;
        x := !x land (!x - 1)
      done;
      if !kept <> 0 then begin
        r.(!k) <- t.(2 * s);
        r.(!k + 1) <- !kept;
        k := !k + 2
      end
    done;
    if not !dropped then t
    else if Int.equal !k len then r
    else Array.sub r 0 !k
  end

(* ------------------------------------------------------------------ *)
(* Repository-specific helpers                                         *)

let of_ints is = of_list (List.map Node_id.of_int is)

(* Number of machine words backing the set: two per non-zero word.  The
   graph layer's memo caches budget their residency in these units, so
   eviction tracks real memory rather than entry counts. *)
let words (t : t) = Array.length t

(* The interval [0, n): pairs of all-ones words plus one partial top
   word.  O(n / 63) — the cheap way to build an implicit graph's vertex
   set without n round-trips through [add]. *)
let full n =
  if n < 0 then invalid_arg "Node_set.full: negative count";
  let whole = n / word_bits and rem = n mod word_bits in
  let pairs = whole + if rem > 0 then 1 else 0 in
  let r = Array.make (2 * pairs) (-1) in
  for w = 0 to pairs - 1 do
    r.(2 * w) <- w
  done;
  if rem > 0 then r.((2 * whole) + 1) <- (1 lsl rem) - 1;
  r

let to_ints t = List.map Node_id.to_int (elements t)

(* Set fingerprint over the (index, word) pairs, keying the graph
   layer's border/components memos.  [Hashtbl.Make] picks a bucket from
   the LOW bits of the hash, and a multiply only carries bits upward, so
   a bare multiplicative accumulation (FNV-1a style) leaves bucket
   choice to ids 63w .. 63w+11 of each word and the memos chain hundreds
   deep.  Each word is therefore folded back down by a xor-shift, then
   tagged with its index, before the next one enters; the splitmix64
   finalizer (its multipliers taken mod 2^63, which is all a 63-bit
   product sees) spreads every bit of every word over the low bits.
   Top-level recursion keeps the loop allocation-free. *)
let rec hash_go t h s =
  if s >= Array.length t then h
  else
    let h = (h lxor Array.unsafe_get t (s + 1)) * 0x3f58476d1ce4e5b9 in
    hash_go t ((h lxor (h lsr 29)) + Array.unsafe_get t s) (s + 2)

let hash t =
  let h = hash_go t 0xcbf29ce4 0 in
  let h = (h lxor (h lsr 30)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 27)) * 0x14d049bb133111eb in
  (h lxor (h lsr 31)) land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

let pp ppf t =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Node_id.pp)
    (elements t)

let pp_named names ppf t =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (Node_id.Names.pp names))
    (elements t)

let to_string t = Format.asprintf "%a" pp t

let random_subset rng t ~keep_probability =
  filter (fun _ -> Prng.float rng 1.0 < keep_probability) t

(* Rank/select over the words: one bounded draw (the same stream the old
   [choose_array] consumed) then O(words) scanning, no intermediate
   array/list. *)
let random_element rng t =
  if is_empty t then invalid_arg "Node_set.random_element: empty set";
  let k = ref (Prng.int rng (cardinal t)) in
  let s = ref 0 in
  while !k >= popcount t.(!s + 1) do
    k := !k - popcount t.(!s + 1);
    s := !s + 2
  done;
  let x = ref t.(!s + 1) in
  for _ = 1 to !k do
    x := !x land (!x - 1)
  done;
  Node_id.of_int ((t.(!s) * word_bits) + ntz (!x land - !x))
