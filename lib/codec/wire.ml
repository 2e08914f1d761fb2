exception Decode_error of string

let fail reader_pos fmt =
  Printf.ksprintf (fun s -> raise (Decode_error (Printf.sprintf "%s (at byte %d)" s reader_pos))) fmt

type writer = Buffer.t

let writer () = Buffer.create 64

let contents = Buffer.contents

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let at_end r = r.pos >= String.length r.data

let expect_end r =
  if not (at_end r) then
    fail r.pos "trailing garbage: %d byte(s) left" (String.length r.data - r.pos)

let write_u8 w v =
  if v < 0 || v > 255 then invalid_arg "Wire.write_u8: out of range";
  Buffer.add_char w (Char.chr v)

let read_u8 r =
  if at_end r then fail r.pos "unexpected end of input reading u8";
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let write_varint w v =
  if v < 0 then invalid_arg "Wire.write_varint: negative";
  let rec loop v =
    if v < 0x80 then write_u8 w v
    else begin
      write_u8 w (0x80 lor (v land 0x7f));
      loop (v lsr 7)
    end
  in
  loop v

(* The ninth byte holds bits 56-62, and bit 62 is an OCaml int's sign
   bit, so it may carry six payload bits and no continuation.  A zero
   final byte after the first adds nothing: the writer never emits one. *)
let check_varint_byte ~pos ~shift byte =
  if shift >= 56 && byte > 0x3f then fail pos "varint overflows a non-negative int"
  else if shift > 0 && byte = 0 then fail pos "non-minimal varint"

let read_varint r =
  let rec loop shift acc =
    let byte = read_u8 r in
    check_varint_byte ~pos:(r.pos - 1) ~shift byte;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else loop (shift + 7) acc
  in
  loop 0 0

let write_bool w b = write_u8 w (if b then 1 else 0)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | other -> fail (r.pos - 1) "invalid boolean byte %d" other

let write_string w s =
  write_varint w (String.length s);
  Buffer.add_string w s

let read_string r =
  let len = read_varint r in
  if r.pos + len > String.length r.data then
    fail r.pos "string length %d exceeds remaining input" len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let read_list r read_element =
  let count = read_varint r in
  (* A count can never exceed the remaining bytes (every element takes at
     least one byte): reject absurd counts before building the list. *)
  if count > String.length r.data - r.pos then
    fail r.pos "list count %d exceeds remaining input" count;
  List.init count (fun _ -> read_element ())

let write_int_set w is =
  let rec check previous = function
    | [] -> ()
    | i :: rest ->
        if i <= previous then
          invalid_arg "Wire.write_int_set: not strictly increasing non-negative";
        check i rest
  in
  check (-1) is;
  write_varint w (List.length is);
  ignore
    (List.fold_left
       (fun previous i ->
         write_varint w (i - previous - 1);
         i)
       (-1) is)

let read_int_set r =
  let count = read_varint r in
  if count > String.length r.data - r.pos then
    fail r.pos "set count %d exceeds remaining input" count;
  let previous = ref (-1) in
  List.init count (fun _ ->
      let delta = read_varint r in
      if delta > max_int - 1 - !previous then
        fail r.pos "set element overflows a non-negative int";
      let v = !previous + 1 + delta in
      previous := v;
      v)
