module Prng = Cliffedge_prng.Prng

type elt = Node_id.t

(* Chunked bitset: word [w] holds members [w * word_bits .. (w + 1) *
   word_bits - 1], bit [i mod word_bits] of [t.(i / word_bits)] set iff
   [i] is a member.  Canonical form: the last word is non-zero (the empty
   set is [[||]]), so structural equality of arrays coincides with set
   equality and every set has exactly one representation.  Arrays are
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

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if Int.equal !n (Array.length a) then a else Array.sub a 0 !n

let word t i = if i < Array.length t then Array.unsafe_get t i else 0

(* ------------------------------------------------------------------ *)
(* Membership and element-wise construction                            *)

let[@lint.hot_path] mem x t =
  let i = Node_id.to_int x in
  let w = i / word_bits in
  w < Array.length t && (Array.unsafe_get t w lsr (i mod word_bits)) land 1 = 1

(* The one-word cases get inline literal allocations: [Array.make] is a
   C call, and single-word sets (up to 63 nodes) cover every benchmark
   topology's sets on the hot paths. *)
let add x t =
  let i = Node_id.to_int x in
  let w = i / word_bits and b = i mod word_bits in
  let len = Array.length t in
  if w < len && (t.(w) lsr b) land 1 = 1 then t
  else if Int.equal w 0 && len <= 1 then
    [| (if Int.equal len 0 then 0 else t.(0)) lor (1 lsl b) |]
  else begin
    let r = Array.make (Int.max len (w + 1)) 0 in
    Array.blit t 0 r 0 len;
    r.(w) <- r.(w) lor (1 lsl b);
    r
  end

let singleton x =
  let i = Node_id.to_int x in
  let r = Array.make ((i / word_bits) + 1) 0 in
  r.(i / word_bits) <- 1 lsl (i mod word_bits);
  r

let remove x t =
  let i = Node_id.to_int x in
  let w = i / word_bits and b = i mod word_bits in
  if w >= Array.length t || (t.(w) lsr b) land 1 = 0 then t
  else if Int.equal (Array.length t) 1 then begin
    let v = t.(0) land lnot (1 lsl b) in
    if Int.equal v 0 then empty else [| v |]
  end
  else begin
    let r = Array.copy t in
    r.(w) <- r.(w) land lnot (1 lsl b);
    trim r
  end

(* ------------------------------------------------------------------ *)
(* Word-parallel set algebra                                           *)

let union a b =
  if a == b then a
  else
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else
      let long, short = if la >= lb then (a, b) else (b, a) in
      let ls = Array.length short in
      (* Cheap subset probe first: returning [long] unchanged keeps
         sharing (and the border cache) effective. *)
      let covered = ref true in
      let i = ref 0 in
      while !covered && !i < ls do
        if short.(!i) land lnot long.(!i) <> 0 then covered := false;
        incr i
      done;
      if !covered then long
      else begin
        let r = Array.copy long in
        for j = 0 to ls - 1 do
          r.(j) <- r.(j) lor short.(j)
        done;
        r
      end

let inter a b =
  if a == b then a
  else
    let l = Int.min (Array.length a) (Array.length b) in
    let n = ref l in
    while !n > 0 && a.(!n - 1) land b.(!n - 1) = 0 do decr n done;
    if !n = 0 then empty
    else begin
      let r = Array.make !n 0 in
      for i = 0 to !n - 1 do
        r.(i) <- a.(i) land b.(i)
      done;
      r
    end

let diff a b =
  if a == b then empty
  else if Array.length b = 0 then a
  else begin
    let la = Array.length a in
    let n = ref la in
    while !n > 0 && a.(!n - 1) land lnot (word b (!n - 1)) = 0 do decr n done;
    if !n = 0 then empty
    else begin
      let r = Array.make !n 0 in
      for i = 0 to !n - 1 do
        r.(i) <- a.(i) land lnot (word b i)
      done;
      r
    end
  end

(* Top-level recursion with explicit arguments: a nested [let rec]
   allocates its closure on every call without flambda, and these run
   on the protocol's delivery path. *)
let[@lint.hot_path] rec disjoint_go a b l i =
  Int.equal i l
  || (Array.unsafe_get a i land Array.unsafe_get b i = 0 && disjoint_go a b l (i + 1))

let[@lint.hot_path] disjoint a b = disjoint_go a b (Int.min (Array.length a) (Array.length b)) 0

let[@lint.hot_path] rec subset_go a b i =
  i < 0
  || (Array.unsafe_get a i land lnot (Array.unsafe_get b i) = 0 && subset_go a b (i - 1))

let[@lint.hot_path] subset a b =
  Array.length a <= Array.length b && subset_go a b (Array.length a - 1)

(* Canonical form (trimmed last word) makes word-wise equality coincide
   with set equality.  Monomorphic loop rather than polymorphic [=]:
   the generic comparator is a C call that re-discovers the array shape
   on every invocation, and [equal] sits on the reject-scan and
   instance-lookup paths. *)
let[@lint.hot_path] rec equal_go a b i =
  i < 0 || (Int.equal (Array.unsafe_get a i) (Array.unsafe_get b i) && equal_go a b (i - 1))

let[@lint.hot_path] equal a b =
  a == b
  || (Int.equal (Array.length a) (Array.length b) && equal_go a b (Array.length a - 1))

(* Lexicographic order on the ascending element sequences, matching
   [Set.Make(Node_id).compare] bit for bit — the region ranking uses it
   as final tie-break, so it must not drift.  Writing [m] for the
   smallest element of the symmetric difference (owned, say, by [a]):
   [a < b] iff [b] still has an element above [m] (then [b]'s sequence is
   larger at that position), and [a > b] iff it does not (then [b] is a
   strict prefix of [a]). *)
let[@lint.hot_path] rec compare_go a b la lb l k =
  if Int.equal k l then 0
  else
    let wa = word a k and wb = word b k in
    if Int.equal wa wb then compare_go a b la lb l (k + 1)
    else
      let bit = let x = wa lxor wb in x land -x in
      let p = ntz bit in
      let in_a = wa land bit <> 0 in
      (* Branch on [in_a] twice rather than binding an (other_len,
         other_word) pair: the conditional tuple is a per-call
         allocation the hot-path-alloc certificate forbids. *)
      let has_greater =
        if in_a then bits_above p wb <> 0 || lb > k + 1
        else bits_above p wa <> 0 || la > k + 1
      in
      if in_a then if has_greater then -1 else 1
      else if has_greater then 1
      else -1

let[@lint.hot_path] compare a b =
  if a == b then 0
  else
    let la = Array.length a and lb = Array.length b in
    compare_go a b la lb (Int.max la lb) 0

let cardinal t =
  let c = ref 0 in
  for i = 0 to Array.length t - 1 do
    c := !c + popcount t.(i)
  done;
  !c

(* ------------------------------------------------------------------ *)
(* Iteration (always in ascending element order, like Set.Make)        *)

let iter f t =
  for w = 0 to Array.length t - 1 do
    let base = w * word_bits in
    let x = ref t.(w) in
    while !x <> 0 do
      let bit = !x land - !x in
      f (Node_id.of_int (base + ntz bit));
      x := !x land (!x - 1)
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun p -> acc := f p !acc) t;
  !acc

exception Found of Node_id.t

let exists p t =
  try
    iter (fun x -> if p x then raise (Found x)) t;
    false
  with Found _ -> true

let for_all p t = not (exists (fun x -> not (p x)) t)

(* Descending iteration: builds [elements] without a reversal. *)
let rev_iter f t =
  for w = Array.length t - 1 downto 0 do
    let base = w * word_bits in
    let x = ref t.(w) in
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
  let len = Array.length t in
  let rec go w =
    if Int.equal w len then None
    else if t.(w) <> 0 then
      Some (Node_id.of_int ((w * word_bits) + ntz (t.(w) land -t.(w))))
    else go (w + 1)
  in
  go 0

let max_elt_opt t =
  let len = Array.length t in
  if len = 0 then None
  else Some (Node_id.of_int (((len - 1) * word_bits) + msb t.(len - 1)))

(* ------------------------------------------------------------------ *)
(* Bulk construction and filtering                                     *)

let of_list l =
  match l with
  | [] -> empty
  | _ ->
      let maxi = List.fold_left (fun acc x -> Int.max acc (Node_id.to_int x)) 0 l in
      let r = Array.make ((maxi / word_bits) + 1) 0 in
      List.iter
        (fun x ->
          let i = Node_id.to_int x in
          r.(i / word_bits) <- r.(i / word_bits) lor (1 lsl (i mod word_bits)))
        l;
      r

let filter p t =
  let len = Array.length t in
  if len = 0 then t
  else begin
    let r = Array.make len 0 in
    let dropped = ref false in
    iter
      (fun x ->
        if p x then begin
          let i = Node_id.to_int x in
          r.(i / word_bits) <- r.(i / word_bits) lor (1 lsl (i mod word_bits))
        end
        else dropped := true)
      t;
    if !dropped then trim r else t
  end

(* ------------------------------------------------------------------ *)
(* Repository-specific helpers                                         *)

let of_ints is = of_list (List.map Node_id.of_int is)

(* Number of machine words backing the set.  The graph layer's memo
   caches budget their residency in these units, so eviction tracks
   real memory rather than entry counts (a single set holding node
   10^6 weighs ~16k words). *)
let words (t : t) = Array.length t

(* The interval [0, n): words of all-ones plus one partial top word.
   O(n / 63) — the cheap way to build an implicit graph's vertex set
   without n round-trips through [add]. *)
let full n =
  if n < 0 then invalid_arg "Node_set.full: negative count";
  if Int.equal n 0 then empty
  else begin
    let whole = n / word_bits and rem = n mod word_bits in
    let r = Array.make (whole + if rem > 0 then 1 else 0) (-1) in
    if rem > 0 then r.(whole) <- (1 lsl rem) - 1;
    r
  end

let to_ints t = List.map Node_id.to_int (elements t)

(* Set fingerprint over the canonical words, keying the graph layer's
   border/components memos.  [Hashtbl.Make] picks a bucket from the LOW
   bits of the hash, and a multiply only carries bits upward, so a bare
   multiplicative accumulation (FNV-1a style) leaves bucket choice to
   ids 63w .. 63w+11 of each word and the memos chain hundreds deep.
   Each non-zero word is therefore folded back down by a xor-shift,
   then tagged with its index, before the next one enters;
   the splitmix64 finalizer (its multipliers taken mod 2^63, which is all
   a 63-bit product sees) spreads every bit of every word over the low
   bits.  Zero words are skipped — the indices keep positions apart — so
   a sparse set over a million ids costs one scan, not 16k multiplies.
   Top-level recursion keeps the loop allocation-free. *)
let[@lint.hot_path] rec hash_go t h i =
  if Int.equal i (Array.length t) then h
  else
    let w = Array.unsafe_get t i in
    if Int.equal w 0 then hash_go t h (i + 1)
    else
      let h = (h lxor w) * 0x3f58476d1ce4e5b9 in
      hash_go t ((h lxor (h lsr 29)) + i) (i + 1)

let[@lint.hot_path] hash t =
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
  let res = ref None in
  let w = ref 0 in
  while !res = None do
    let c = popcount t.(!w) in
    if !k < c then begin
      let x = ref t.(!w) in
      for _ = 1 to !k do
        x := !x land (!x - 1)
      done;
      res := Some (Node_id.of_int ((!w * word_bits) + ntz (!x land - !x)))
    end
    else begin
      k := !k - c;
      incr w
    end
  done;
  Option.get !res
