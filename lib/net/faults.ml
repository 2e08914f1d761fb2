open Cliffedge_graph

type cut = {
  from_time : float;
  until_time : float;
  a : Node_id.t;
  b : Node_id.t;
}

type t = {
  drop : float;
  dup : float;
  reorder : int;
  cuts : cut list;
}

let none = { drop = 0.0; dup = 0.0; reorder = 0; cuts = [] }

let is_pass_through t =
  Float.equal t.drop 0.0
  && Float.equal t.dup 0.0
  && Int.equal t.reorder 0
  && match t.cuts with [] -> true | _ :: _ -> false

let cut_active t ~src ~dst ~time =
  List.exists
    (fun c ->
      time >= c.from_time
      && time < c.until_time
      && ((Node_id.equal c.a src && Node_id.equal c.b dst)
         || (Node_id.equal c.a dst && Node_id.equal c.b src)))
    t.cuts

(* Validation mirrors [Latency.of_string]: every parameter is checked
   here so a plan that parses is a plan that injects sensible faults. *)
let of_string s =
  let ( let* ) = Result.bind in
  let probability name raw =
    match float_of_string_opt raw with
    | Some p when Float.is_finite p && p >= 0.0 && p <= 1.0 -> Ok p
    | Some p ->
        Error
          (Printf.sprintf "fault spec %S: %s must be a probability in [0, 1], got %g"
             s name p)
    | None -> Error (Printf.sprintf "fault spec %S: %s is not a number: %S" s name raw)
  in
  let time name raw =
    if String.equal raw "inf" then Ok infinity
    else
      match float_of_string_opt raw with
      | Some v when Float.is_finite v && v >= 0.0 -> Ok v
      | Some v ->
          Error
            (Printf.sprintf "fault spec %S: %s must be finite and non-negative, got %g"
               s name v)
      | None ->
          Error (Printf.sprintf "fault spec %S: %s is not a time: %S" s name raw)
  in
  let node name raw =
    match int_of_string_opt raw with
    | Some i when i >= 0 -> Ok (Node_id.of_int i)
    | _ ->
        Error
          (Printf.sprintf "fault spec %S: %s must be a non-negative node id, got %S" s
             name raw)
  in
  (* The separator is the first '-' that is neither a leading sign nor
     an exponent's: [pp] prints a cut time of 1e-05 as "1e-05". *)
  let dashed name raw =
    let separates i =
      i > 0 && Char.equal raw.[i] '-'
      && not (Char.equal raw.[i - 1] 'e' || Char.equal raw.[i - 1] 'E')
    in
    let n = String.length raw in
    match List.find_opt separates (List.init n Fun.id) with
    | Some i -> Ok (String.sub raw 0 i, String.sub raw (i + 1) (n - i - 1))
    | None -> Error (Printf.sprintf "fault spec %S: %s must be LO-HI, got %S" s name raw)
  in
  let clause acc c =
    let* acc = acc in
    match String.split_on_char ':' c with
    | [ "drop"; p ] ->
        let* p = probability "drop" p in
        Ok { acc with drop = p }
    | [ "dup"; p ] ->
        let* p = probability "dup" p in
        Ok { acc with dup = p }
    | [ "reorder"; k ] -> (
        match int_of_string_opt k with
        | Some k when k >= 0 -> Ok { acc with reorder = k }
        | _ ->
            Error
              (Printf.sprintf
                 "fault spec %S: reorder bound must be a non-negative integer, got %S" s
                 k))
    | [ "cut"; window; pair ] ->
        let* t1, t2 = dashed "cut window" window in
        let* from_time = time "cut start" t1 in
        let* until_time = time "cut end" t2 in
        let* a, b = dashed "cut pair" pair in
        let* a = node "cut endpoint" a in
        let* b = node "cut endpoint" b in
        if not (from_time < until_time) then
          Error
            (Printf.sprintf "fault spec %S: empty cut window (%g >= %g)" s from_time
               until_time)
        else if Node_id.equal a b then
          Error
            (Printf.sprintf "fault spec %S: cut endpoints must differ, got %d twice" s
               (Node_id.to_int a))
        else Ok { acc with cuts = acc.cuts @ [ { from_time; until_time; a; b } ] }
    | _ ->
        Error
          (Printf.sprintf
             "fault spec %S: unrecognized clause %S (expected drop:P, dup:P, \
              reorder:K or cut:T1-T2:A-B)"
             s c)
  in
  if String.equal s "none" then Ok none
  else List.fold_left clause (Ok none) (String.split_on_char ',' s)

let pp ppf t =
  if is_pass_through t then Format.pp_print_string ppf "none"
  else begin
    let sep = ref false in
    let item fmt =
      Format.kasprintf
        (fun s ->
          if !sep then Format.pp_print_char ppf ',';
          sep := true;
          Format.pp_print_string ppf s)
        fmt
    in
    (* [infinity] prints as "inf", which [time] reads back. *)
    let num = Topology.pp_spec_float in
    if not (Float.equal t.drop 0.0) then item "drop:%a" num t.drop;
    if not (Float.equal t.dup 0.0) then item "dup:%a" num t.dup;
    if not (Int.equal t.reorder 0) then item "reorder:%d" t.reorder;
    List.iter
      (fun c ->
        item "cut:%a-%a:%d-%d" num c.from_time num c.until_time (Node_id.to_int c.a)
          (Node_id.to_int c.b))
      t.cuts
  end
