let max_frame_length = 16 * 1024 * 1024

let frame payload =
  let w = Wire.writer () in
  Wire.write_varint w (String.length payload);
  Wire.contents w ^ payload

type decoder = { mutable buffer : string }

let decoder () = { buffer = "" }

let pending_bytes d = String.length d.buffer

(* Attempts to read a varint at the head of [s]; returns
   [Some (value, bytes_consumed)] or [None] when more input is needed. *)
let parse_varint_prefix s =
  let rec loop i shift acc =
    if i >= String.length s then None
    else
      let byte = Char.code s.[i] in
      Wire.check_varint_byte ~pos:i ~shift byte;
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then Some (acc, i + 1)
      else loop (i + 1) (shift + 7) acc
  in
  loop 0 0 0

let feed d chunk =
  d.buffer <- d.buffer ^ chunk;
  let rec extract acc =
    match parse_varint_prefix d.buffer with
    | None -> List.rev acc
    | Some (length, header) ->
        if length > max_frame_length then
          raise
            (Wire.Decode_error
               (Printf.sprintf "frame length %d exceeds the %d-byte cap" length
                  max_frame_length));
        if String.length d.buffer < header + length then List.rev acc
        else begin
          let payload = String.sub d.buffer header length in
          d.buffer <-
            String.sub d.buffer (header + length)
              (String.length d.buffer - header - length);
          extract (payload :: acc)
        end
  in
  extract []
