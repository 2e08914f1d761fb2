type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write buffer indent t =
  let pad n = Buffer.add_string buffer (String.make n ' ') in
  match t with
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (string_of_bool b)
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f -> Buffer.add_string buffer (float_repr f)
  | String s -> escape buffer s
  | List [] -> Buffer.add_string buffer "[]"
  | List items ->
      Buffer.add_string buffer "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buffer ",\n";
          pad (indent + 2);
          write buffer (indent + 2) item)
        items;
      Buffer.add_char buffer '\n';
      pad indent;
      Buffer.add_char buffer ']'
  | Obj [] -> Buffer.add_string buffer "{}"
  | Obj fields ->
      Buffer.add_string buffer "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buffer ",\n";
          pad (indent + 2);
          escape buffer k;
          Buffer.add_string buffer ": ";
          write buffer (indent + 2) v)
        fields;
      Buffer.add_char buffer '\n';
      pad indent;
      Buffer.add_char buffer '}'

let to_string t =
  let buffer = Buffer.create 1024 in
  write buffer 0 t;
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

(* ------------------------------------------------------------------ *)
(* Parsing: a plain recursive-descent reader over the input string.    *)

exception Parse_error of string

let of_string s =
  let pos = ref 0 in
  let len = String.length s in
  let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let peek_is c = !pos < len && Char.equal s.[!pos] c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < len && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c' c -> advance ()
    | Some c' -> fail "expected '%c' at offset %d, found '%c'" c !pos c'
    | None -> fail "expected '%c' at offset %d, found end of input" c !pos
  in
  let literal word value =
    if
      !pos + String.length word <= len
      && String.equal (String.sub s !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "invalid literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buffer
      | '\\' -> (
          if !pos >= len then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' -> Buffer.add_char buffer e; go ()
          | 'n' -> Buffer.add_char buffer '\n'; go ()
          | 't' -> Buffer.add_char buffer '\t'; go ()
          | 'r' -> Buffer.add_char buffer '\r'; go ()
          | 'b' -> Buffer.add_char buffer '\b'; go ()
          | 'f' -> Buffer.add_char buffer '\012'; go ()
          | 'u' ->
              if !pos + 4 > len then fail "truncated \\u escape";
              let digits = String.sub s !pos 4 in
              (* [int_of_string] alone would also take a sign or an
                 underscore, and raise on anything else. *)
              let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
              if not (String.for_all hex digits) then
                fail "invalid \\u escape at offset %d: expected four hex digits" (!pos - 2);
              let code = int_of_string ("0x" ^ digits) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar buffer
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep);
              go ()
          | _ -> fail "invalid escape '\\%c'" e)
      | c -> Buffer.add_char buffer c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "invalid number %S at offset %d" text start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek_is '}' then begin advance (); Obj [] end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}' at offset %d" !pos
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek_is ']' then begin advance (); List [] end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']' at offset %d" !pos
          in
          items []
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if not (Int.equal !pos len) then fail "trailing garbage at offset %d" !pos;
    v
  with
  | v -> Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Object utilities                                                    *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let set key value = function
  | Obj fields ->
      if List.exists (fun (k, _) -> String.equal k key) fields then
        Obj
          (List.map
             (fun (k, v) -> if String.equal k key then (k, value) else (k, v))
             fields)
      else Obj (fields @ [ (key, value) ])
  | _ -> Obj [ (key, value) ]

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let to_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let of_file path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string content
