open Cliffedge_graph
module Message = Cliffedge.Message
module Opinion = Cliffedge.Opinion

type 'v value = {
  write : Wire.writer -> 'v -> unit;
  read : Wire.reader -> 'v;
}

let string_value = { write = Wire.write_string; read = Wire.read_string }

let int_value = { write = Wire.write_varint; read = Wire.read_varint }

let magic = 0xCE

let version = 1

let kind_round = 0

let kind_outcome = 1

let write_node_set w s = Wire.write_int_set w (Node_set.to_ints s)

let read_node_set r = Node_set.of_ints (Wire.read_int_set r)

let write_vector value w vec =
  Wire.write_varint w (Opinion.Vector.known vec);
  Opinion.Vector.iter
    (fun p op ->
      Wire.write_varint w (Node_id.to_int p);
      match op with
      | Opinion.Reject -> Wire.write_u8 w 0
      | Opinion.Accept v ->
          Wire.write_u8 w 1;
          value.write w v)
    vec

(* [write_vector] emits ids in increasing order, so anything else is not
   an encoding of any vector. *)
let read_vector value r =
  let previous = ref (-1) in
  let entries =
    Wire.read_list r (fun () ->
        let id = Wire.read_varint r in
        if id <= !previous then
          raise
            (Wire.Decode_error
               (Printf.sprintf "opinion id %d after %d: ids must ascend" id
                  !previous));
        previous := id;
        let p = Node_id.of_int id in
        match Wire.read_u8 r with
        | 0 -> (p, Opinion.Reject)
        | 1 -> (p, Opinion.Accept (value.read r))
        | other -> raise (Wire.Decode_error (Printf.sprintf "invalid opinion tag %d" other)))
  in
  Opinion.Vector.of_list entries

let encode value msg =
  let w = Wire.writer () in
  Wire.write_u8 w magic;
  Wire.write_u8 w version;
  (match msg with
  | Message.Round { round; view; border; opinions } ->
      Wire.write_u8 w kind_round;
      Wire.write_varint w round;
      write_node_set w view;
      write_node_set w border;
      write_vector value w opinions
  | Message.Outcome { view; border; opinions } ->
      Wire.write_u8 w kind_outcome;
      write_node_set w view;
      write_node_set w border;
      write_vector value w opinions);
  Wire.contents w

let decode value data =
  let r = Wire.reader data in
  let m = Wire.read_u8 r in
  if not (Int.equal m magic) then
    raise (Wire.Decode_error (Printf.sprintf "bad magic 0x%02x" m));
  let v = Wire.read_u8 r in
  if not (Int.equal v version) then
    raise (Wire.Decode_error (Printf.sprintf "unsupported version %d" v));
  let msg =
    match Wire.read_u8 r with
    | k when Int.equal k kind_round ->
        let round = Wire.read_varint r in
        let view = read_node_set r in
        let border = read_node_set r in
        let opinions = read_vector value r in
        Message.Round { round; view; border; opinions }
    | k when Int.equal k kind_outcome ->
        let view = read_node_set r in
        let border = read_node_set r in
        let opinions = read_vector value r in
        Message.Outcome { view; border; opinions }
    | k -> raise (Wire.Decode_error (Printf.sprintf "unknown message kind %d" k))
  in
  Wire.expect_end r;
  msg
