type t = int

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative identifier";
  i

let to_int t = t

let compare = Int.compare

let equal = Int.equal

let hash t = t

(* Identifiers are non-negative, so the identity is already a valid
   hash, and consecutive ids land in consecutive buckets. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

let row rows p =
  match Tbl.find rows p with
  | row -> row
  | exception Not_found ->
      let row = Tbl.create 4 in
      Tbl.add rows p row;
      row

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
