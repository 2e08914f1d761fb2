type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative identifier";
  i

let to_int t = t

let compare = Int.compare

let equal = Int.equal

let hash t = t

(* Packed ordered-pair keys.  31 bits per component keeps the packed
   key an immediate int on 64-bit OCaml (2*31 = 62 < 63), so hashtable
   lookups keyed by a pair hash a machine word instead of allocating a
   tuple — while staying collision-free for every identifier below
   2^31, far past the million-node scale target.  (The previous 20-bit
   shift silently collided from id 2^20 = 1,048,576 on.) *)
let pair_bits = 31

let pair_component_limit = 1 lsl pair_bits

let pair_key a b =
  if a lsr pair_bits <> 0 || b lsr pair_bits <> 0 then
    invalid_arg "Node_id.pair_key: identifier does not fit in 31 bits";
  (a lsl pair_bits) lor b

let pair_fst k = k lsr pair_bits

let pair_snd k = k land (pair_component_limit - 1)

(* Identifiers are non-negative, so the identity is already a valid
   hash, and consecutive ids land in consecutive buckets. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

let pp ppf t = Format.fprintf ppf "n%d" t

let to_string t = "n" ^ string_of_int t

module Names = struct
  module M = Map.Make (Int)

  type nonrec t = string M.t

  let empty = M.empty

  let add id name t = M.add id name t

  let of_list l = List.fold_left (fun acc (id, name) -> add id name acc) empty l

  let find t id = M.find_opt id t

  let pp t ppf id =
    match find t id with
    | Some name -> Format.pp_print_string ppf name
    | None -> pp ppf id
end
