(* Tests for the binary wire format and message codecs. *)

open Cliffedge_graph
module Wire = Cliffedge_codec.Wire
module Codec = Cliffedge_codec.Codec
module Message = Cliffedge.Message
module Opinion = Cliffedge.Opinion

let n = Node_id.of_int

let set = Node_set.of_ints

(* ---------------- wire primitives ---------------- *)

let test_varint_roundtrip_edges () =
  List.iter
    (fun v ->
      let w = Wire.writer () in
      Wire.write_varint w v;
      let r = Wire.reader (Wire.contents w) in
      Alcotest.(check int) (string_of_int v) v (Wire.read_varint r);
      Wire.expect_end r)
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 30; max_int ]

let test_varint_rejects_negative () =
  let w = Wire.writer () in
  Alcotest.check_raises "negative" (Invalid_argument "Wire.write_varint: negative")
    (fun () -> Wire.write_varint w (-1))

let test_varint_compactness () =
  let size v =
    let w = Wire.writer () in
    Wire.write_varint w v;
    String.length (Wire.contents w)
  in
  Alcotest.(check int) "small is 1 byte" 1 (size 100);
  Alcotest.(check int) "medium is 2 bytes" 2 (size 1000)

let test_truncated_varint () =
  let r = Wire.reader "\x80" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Wire.read_varint r);
       false
     with Wire.Decode_error _ -> true)

(* Only [Wire.Decode_error] counts as a rejection: any other exception
   escapes and fails the test. *)
let rejects f =
  try
    ignore (f ());
    false
  with Wire.Decode_error _ -> true

(* Nine bytes whose last sets bit 62, the sign bit of a 63-bit int. *)
let overflowing_varint = String.make 8 '\xff' ^ "\x7f"

let test_varint_overflow_rejected () =
  Alcotest.(check bool) "read_varint" true
    (rejects (fun () -> Wire.read_varint (Wire.reader overflowing_varint)));
  (* Read as an Outcome's view count, a negative varint would reach
     [List.init]. *)
  Alcotest.(check bool) "decode" true
    (rejects (fun () ->
         Codec.decode Codec.string_value ("\xce\x01\x01" ^ overflowing_varint)));
  (* Each varint fits, but the second element, max_int + 1, does not. *)
  let w = Wire.writer () in
  List.iter (Wire.write_varint w) [ 2; max_int; 0 ];
  Alcotest.(check bool) "int set element" true
    (rejects (fun () -> Wire.read_int_set (Wire.reader (Wire.contents w))))

let test_varint_non_minimal_rejected () =
  List.iter
    (fun data ->
      Alcotest.(check bool) (String.escaped data) true
        (rejects (fun () -> Wire.read_varint (Wire.reader data))))
    [ "\x87\x00"; "\x80\x00"; "\xff\x80\x00" ]

let test_string_roundtrip () =
  let w = Wire.writer () in
  Wire.write_string w "héllo\x00world";
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check string) "roundtrip" "héllo\x00world" (Wire.read_string r)

let test_string_length_checked () =
  (* Length prefix says 100 but only 2 bytes follow. *)
  let w = Wire.writer () in
  Wire.write_varint w 100;
  let data = Wire.contents w ^ "ab" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Wire.read_string (Wire.reader data));
       false
     with Wire.Decode_error _ -> true)

let test_bool_roundtrip () =
  let w = Wire.writer () in
  Wire.write_bool w true;
  Wire.write_bool w false;
  let r = Wire.reader (Wire.contents w) in
  Alcotest.(check bool) "true" true (Wire.read_bool r);
  Alcotest.(check bool) "false" false (Wire.read_bool r)

let test_bool_invalid () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Wire.read_bool (Wire.reader "\x07"));
       false
     with Wire.Decode_error _ -> true)

let test_int_set_roundtrip () =
  List.iter
    (fun is ->
      let w = Wire.writer () in
      Wire.write_int_set w is;
      let r = Wire.reader (Wire.contents w) in
      Alcotest.(check (list int)) "roundtrip" is (Wire.read_int_set r);
      Wire.expect_end r)
    [ []; [ 0 ]; [ 0; 1; 2 ]; [ 5; 100; 10000 ]; [ 42 ] ]

let test_int_set_rejects_unsorted () =
  let w = Wire.writer () in
  Alcotest.(check bool) "raises" true
    (try
       Wire.write_int_set w [ 3; 1 ];
       false
     with Invalid_argument _ -> true)

let test_int_set_compact () =
  (* 100 consecutive ids cost ~1 byte each. *)
  let w = Wire.writer () in
  Wire.write_int_set w (List.init 100 (fun i -> 1000 + i));
  Alcotest.(check bool) "compact" true (String.length (Wire.contents w) <= 104)

let test_trailing_garbage_rejected () =
  let r = Wire.reader "\x01\x02" in
  ignore (Wire.read_u8 r);
  Alcotest.(check bool) "raises" true
    (try
       Wire.expect_end r;
       false
     with Wire.Decode_error _ -> true)

(* ---------------- message codecs ---------------- *)

let sample_round =
  Message.Round
    {
      round = 3;
      view = set [ 4; 5; 6 ];
      border = set [ 3; 7 ];
      opinions =
        Opinion.Vector.of_list
          [ (n 3, Opinion.Accept "plan-a"); (n 7, Opinion.Reject) ];
    }

let sample_outcome =
  Message.Outcome
    {
      view = set [ 4; 5 ];
      border = set [ 3; 6 ];
      opinions =
        Opinion.Vector.of_list
          [ (n 3, Opinion.Accept "x"); (n 6, Opinion.Accept "y") ];
    }

let message_equal a b =
  match (a, b) with
  | ( Message.Round { round = r1; view = v1; border = b1; opinions = o1 },
      Message.Round { round = r2; view = v2; border = b2; opinions = o2 } ) ->
      r1 = r2 && Node_set.equal v1 v2 && Node_set.equal b1 b2
      && Opinion.Vector.equal String.equal o1 o2
  | ( Message.Outcome { view = v1; border = b1; opinions = o1 },
      Message.Outcome { view = v2; border = b2; opinions = o2 } ) ->
      Node_set.equal v1 v2 && Node_set.equal b1 b2
      && Opinion.Vector.equal String.equal o1 o2
  | _ -> false

let test_message_roundtrip () =
  List.iter
    (fun msg ->
      let encoded = Codec.encode Codec.string_value msg in
      let decoded = Codec.decode Codec.string_value encoded in
      Alcotest.(check bool) "roundtrip" true (message_equal msg decoded))
    [ sample_round; sample_outcome ]

(* A short frame may name any id up to [max_int].  A decoded set weighs
   two words per non-zero 63-bit word of members, whatever their
   magnitude, so such a frame decodes to a set of a few words instead
   of asking for memory in proportion to its largest id. *)
let test_huge_ids_roundtrip () =
  let view = set [ 1 lsl 40; max_int - 1 ] in
  let msg =
    Message.Outcome
      {
        view;
        border = set [ 3 ];
        opinions = Opinion.Vector.of_list [ (n 3, Opinion.Accept "x") ];
      }
  in
  match Codec.decode Codec.string_value (Codec.encode Codec.string_value msg) with
  | Message.Outcome { view = decoded; _ } as back ->
      Alcotest.(check bool) "roundtrip" true (message_equal msg back);
      Alcotest.(check (list int)) "members" (Node_set.to_ints view) (Node_set.to_ints decoded);
      Alcotest.(check bool)
        (Printf.sprintf "decoded view weighs %d words" (Node_set.words decoded))
        true
        (Node_set.words decoded <= 4)
  | Message.Round _ -> Alcotest.fail "decoded a Round from an Outcome frame"

let test_bad_magic () =
  let encoded = Codec.encode Codec.string_value sample_round in
  let corrupted = "\x00" ^ String.sub encoded 1 (String.length encoded - 1) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Codec.decode Codec.string_value corrupted);
       false
     with Wire.Decode_error _ -> true)

let test_bad_version () =
  let encoded = Codec.encode Codec.string_value sample_round in
  let bytes = Bytes.of_string encoded in
  Bytes.set bytes 1 '\x63';
  Alcotest.(check bool) "raises" true
    (try
       ignore (Codec.decode Codec.string_value (Bytes.to_string bytes));
       false
     with Wire.Decode_error _ -> true)

let test_truncation_rejected () =
  let encoded = Codec.encode Codec.string_value sample_round in
  for cut = 0 to String.length encoded - 1 do
    let prefix = String.sub encoded 0 cut in
    let raises =
      try
        ignore (Codec.decode Codec.string_value prefix);
        false
      with Wire.Decode_error _ -> true
    in
    if not raises then Alcotest.failf "prefix of %d bytes decoded" cut
  done

let test_trailing_bytes_rejected () =
  let encoded = Codec.encode Codec.string_value sample_round in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Codec.decode Codec.string_value (encoded ^ "z"));
       false
     with Wire.Decode_error _ -> true)

let test_int_value_codec () =
  let msg =
    Message.Round
      {
        round = 1;
        view = set [ 2 ];
        border = set [ 1; 3 ];
        opinions = Opinion.Vector.of_list [ (n 1, Opinion.Accept 42) ];
      }
  in
  let decoded = Codec.decode Codec.int_value (Codec.encode Codec.int_value msg) in
  match decoded with
  | Message.Round { opinions; _ } -> (
      match Opinion.Vector.get opinions (n 1) with
      | Some (Opinion.Accept 42) -> ()
      | _ -> Alcotest.fail "value lost")
  | _ -> Alcotest.fail "wrong shape"

let test_opinion_ids_must_ascend () =
  let encoding ids =
    let w = Wire.writer () in
    List.iter (Wire.write_u8 w) [ 0xce; Codec.version; 1 ];
    Wire.write_int_set w [ 2 ];
    Wire.write_int_set w [ 1; 3 ];
    Wire.write_varint w (List.length ids);
    List.iter
      (fun id ->
        Wire.write_varint w id;
        Wire.write_u8 w 0)
      ids;
    Wire.contents w
  in
  ignore (Codec.decode Codec.string_value (encoding [ 1; 3 ]));
  Alcotest.(check bool) "descending" true
    (rejects (fun () -> Codec.decode Codec.string_value (encoding [ 3; 1 ])));
  Alcotest.(check bool) "repeated" true
    (rejects (fun () -> Codec.decode Codec.string_value (encoding [ 1; 1 ])))

let test_golden_bytes_stable () =
  (* Wire stability: this exact encoding is part of the format contract;
     update [Codec.version] if it ever has to change. *)
  let msg =
    Message.Round
      {
        round = 1;
        view = set [ 2 ];
        border = set [ 1; 3 ];
        opinions = Opinion.Vector.of_list [ (n 1, Opinion.Accept "d") ];
      }
  in
  let encoded = Codec.encode Codec.string_value msg in
  let hex =
    String.concat ""
      (List.init (String.length encoded) (fun i ->
           Printf.sprintf "%02x" (Char.code encoded.[i])))
  in
  Alcotest.(check string) "golden" "ce01000101020201010101010164" hex

(* Property: random messages roundtrip. *)
let gen_message =
  QCheck2.Gen.(
    let* view_ids = list_size (int_range 1 6) (int_range 0 200) in
    let* border_ids = list_size (int_range 1 6) (int_range 0 200) in
    let view = Node_set.of_ints view_ids in
    let border = Node_set.of_ints border_ids in
    let* ops =
      list_size (int_range 0 6)
        (pair (int_range 0 200) (oneof [ return None; map Option.some string_printable ]))
    in
    let opinions =
      Opinion.Vector.of_list
        (List.map
           (fun (i, v) ->
             ( Node_id.of_int i,
               match v with
               | None -> Opinion.Reject
               | Some s -> Opinion.Accept s ))
           ops)
    in
    let* round = int_range 1 50 in
    let* outcome = bool in
    if outcome then return (Message.Outcome { view; border; opinions })
    else return (Message.Round { round; view; border; opinions }))

let prop_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrips random messages" ~count:500 gen_message
    (fun msg ->
      message_equal msg
        (Codec.decode Codec.string_value (Codec.encode Codec.string_value msg)))

let prop_random_bytes_never_crash =
  QCheck2.Test.make ~name:"decoder rejects random bytes gracefully" ~count:500
    QCheck2.Gen.(string_size ~gen:char (int_range 0 40))
    (fun data ->
      try
        ignore (Codec.decode Codec.string_value data);
        true (* a random string decoding successfully is astronomically
                unlikely but not wrong *)
      with
      | Wire.Decode_error _ -> true
      | _ -> false)

(* Property: a decoder that accepts only canonical bytes.  Every
   one-byte mutation of a valid encoding (a bit flip or a replaced
   byte) is rejected with [Wire.Decode_error] or decodes to a message
   whose encoding is the mutated input itself. *)
let gen_mutated =
  QCheck2.Gen.(
    let* msg = gen_message in
    let encoded = Codec.encode Codec.string_value msg in
    let* pos = int_bound (String.length encoded - 1) in
    let* byte =
      oneof
        [
          map (fun bit -> Char.code encoded.[pos] lxor (1 lsl bit)) (int_bound 7);
          int_bound 255;
        ]
    in
    let mutated = Bytes.of_string encoded in
    Bytes.set mutated pos (Char.chr byte);
    return (Bytes.to_string mutated))

let prop_mutations_canonical =
  QCheck2.Test.make ~name:"decoder accepts only canonical mutations" ~count:2000
    ~print:String.escaped gen_mutated (fun data ->
      match Codec.decode Codec.string_value data with
      | msg -> String.equal (Codec.encode Codec.string_value msg) data
      | exception Wire.Decode_error _ -> true)

let suite =
  ( "codec",
    [
      Alcotest.test_case "varint edges" `Quick test_varint_roundtrip_edges;
      Alcotest.test_case "varint negative" `Quick test_varint_rejects_negative;
      Alcotest.test_case "varint compactness" `Quick test_varint_compactness;
      Alcotest.test_case "varint truncated" `Quick test_truncated_varint;
      Alcotest.test_case "varint overflow" `Quick test_varint_overflow_rejected;
      Alcotest.test_case "varint non-minimal" `Quick test_varint_non_minimal_rejected;
      Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
      Alcotest.test_case "string length checked" `Quick test_string_length_checked;
      Alcotest.test_case "bool roundtrip" `Quick test_bool_roundtrip;
      Alcotest.test_case "bool invalid" `Quick test_bool_invalid;
      Alcotest.test_case "int set roundtrip" `Quick test_int_set_roundtrip;
      Alcotest.test_case "int set unsorted" `Quick test_int_set_rejects_unsorted;
      Alcotest.test_case "int set compact" `Quick test_int_set_compact;
      Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage_rejected;
      Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
      Alcotest.test_case "huge ids roundtrip" `Quick test_huge_ids_roundtrip;
      Alcotest.test_case "bad magic" `Quick test_bad_magic;
      Alcotest.test_case "bad version" `Quick test_bad_version;
      Alcotest.test_case "all truncations rejected" `Quick test_truncation_rejected;
      Alcotest.test_case "trailing bytes rejected" `Quick test_trailing_bytes_rejected;
      Alcotest.test_case "int value codec" `Quick test_int_value_codec;
      Alcotest.test_case "opinion ids ascend" `Quick test_opinion_ids_must_ascend;
      Alcotest.test_case "golden bytes" `Quick test_golden_bytes_stable;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_random_bytes_never_crash;
      QCheck_alcotest.to_alcotest prop_mutations_canonical;
    ] )

(* ---------------- stream framing ---------------- *)

module Framing = Cliffedge_codec.Framing

let test_framing_single () =
  let d = Framing.decoder () in
  Alcotest.(check (list string)) "one frame" [ "hello" ]
    (Framing.feed d (Framing.frame "hello"));
  Alcotest.(check int) "drained" 0 (Framing.pending_bytes d)

let test_framing_batch () =
  let d = Framing.decoder () in
  let stream = Framing.frame "a" ^ Framing.frame "" ^ Framing.frame "ccc" in
  Alcotest.(check (list string)) "three frames incl. empty" [ "a"; ""; "ccc" ]
    (Framing.feed d stream)

let test_framing_byte_by_byte () =
  let d = Framing.decoder () in
  let stream = Framing.frame "chunky" ^ Framing.frame "bacon" in
  let got = ref [] in
  String.iter
    (fun c -> got := !got @ Framing.feed d (String.make 1 c))
    stream;
  Alcotest.(check (list string)) "reassembled" [ "chunky"; "bacon" ] !got

let test_framing_split_inside_prefix () =
  (* A 200-byte payload has a 2-byte varint prefix; split between the
     prefix bytes. *)
  let payload = String.make 200 'x' in
  let stream = Framing.frame payload in
  let d = Framing.decoder () in
  Alcotest.(check (list string)) "first byte only" []
    (Framing.feed d (String.sub stream 0 1));
  Alcotest.(check (list string)) "rest" [ payload ]
    (Framing.feed d (String.sub stream 1 (String.length stream - 1)))

let test_framing_oversize_rejected () =
  let w = Cliffedge_codec.Wire.writer () in
  Cliffedge_codec.Wire.write_varint w (Framing.max_frame_length + 1);
  let d = Framing.decoder () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Framing.feed d (Cliffedge_codec.Wire.contents w));
       false
     with Wire.Decode_error _ -> true)

let test_framing_overflow_rejected () =
  (* A negative frame length would reach [String.sub]. *)
  Alcotest.(check bool) "raises" true
    (rejects (fun () -> Framing.feed (Framing.decoder ()) overflowing_varint))

let prop_framing_random_chunking =
  QCheck2.Test.make ~name:"framing survives arbitrary chunking" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 8) (string_size ~gen:char (int_range 0 50)))
        (int_range 1 7))
    (fun (payloads, chunk_size) ->
      let stream = String.concat "" (List.map Framing.frame payloads) in
      let d = Framing.decoder () in
      let got = ref [] in
      let i = ref 0 in
      while !i < String.length stream do
        let len = min chunk_size (String.length stream - !i) in
        got := !got @ Framing.feed d (String.sub stream !i len);
        i := !i + len
      done;
      !got = payloads && Framing.pending_bytes d = 0)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "framing single" `Quick test_framing_single;
        Alcotest.test_case "framing batch" `Quick test_framing_batch;
        Alcotest.test_case "framing byte-by-byte" `Quick test_framing_byte_by_byte;
        Alcotest.test_case "framing split prefix" `Quick test_framing_split_inside_prefix;
        Alcotest.test_case "framing oversize" `Quick test_framing_oversize_rejected;
        Alcotest.test_case "framing overflow" `Quick test_framing_overflow_rejected;
        QCheck_alcotest.to_alcotest prop_framing_random_chunking;
      ] )
