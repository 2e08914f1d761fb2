(* A single lint finding, location-addressed so editors and the cram
   suite agree on the same coordinates. *)

type t = {
  rule : string;  (** rule id, e.g. ["no-poly-compare"] *)
  file : string;  (** reported path, e.g. ["lib/core/protocol.ml"] *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler convention *)
  cnum : int;  (** absolute char offset; used for suppression spans *)
  message : string;
}

let v ~rule ~file ~line ~col message =
  { rule; file; line; col; cnum = 0; message }

let make ~rule ~file ~loc message =
  let start = loc.Ppxlib.Location.loc_start in
  {
    rule;
    file;
    line = start.Lexing.pos_lnum;
    col = start.Lexing.pos_cnum - start.Lexing.pos_bol;
    cnum = start.Lexing.pos_cnum;
    message;
  }

(* Stable report order: file, then position, then rule id. *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let to_string d =
  Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message
