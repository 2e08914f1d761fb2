open Cliffedge_graph

type kind =
  | Crash
  | Suspect of { target : Node_id.t }
  | Send of { dst : Node_id.t; units : int }
  | Deliver of { src : Node_id.t }
  | Retransmit of { dst : Node_id.t; attempt : int; frames : int }
  | Stall of { dst : Node_id.t }
  | Propose
  | Reject
  | Round of { round : int }
  | Abort
  | Early_outcome of { success : bool }
  | Decide

type t = {
  seq : int;
  time : float;
  node : Node_id.t;
  instance : Node_set.t option;
  parent : int option;
  kind : kind;
}

let kind_name = function
  | Crash -> "crash"
  | Suspect _ -> "suspect"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Retransmit _ -> "retransmit"
  | Stall _ -> "stall"
  | Propose -> "propose"
  | Reject -> "reject"
  | Round _ -> "round"
  | Abort -> "abort"
  | Early_outcome _ -> "early-outcome"
  | Decide -> "decide"

let kind_names =
  [
    "crash";
    "suspect";
    "send";
    "deliver";
    "retransmit";
    "stall";
    "propose";
    "reject";
    "round";
    "abort";
    "early-outcome";
    "decide";
  ]

let category = function
  | Send _ | Deliver _ | Retransmit _ | Stall _ -> "net"
  | Crash | Suspect _ -> "fd"
  | Propose | Reject | Round _ | Abort | Early_outcome _ | Decide -> "protocol"

(* One buffer pass, no intermediate list.  Runs only when an event is
   rendered (pp, the exporters, the CLI), never while a run records. *)
let instance_of_view view =
  let b = Buffer.create 16 in
  Node_set.iter
    (fun p ->
      if Buffer.length b > 0 then Buffer.add_char b '.';
      Buffer.add_string b (string_of_int (Node_id.to_int p)))
    view;
  Buffer.contents b

let pp_kind ppf = function
  | Crash -> Format.pp_print_string ppf "CRASH"
  | Suspect { target } -> Format.fprintf ppf "suspects %a" Node_id.pp target
  | Send { dst; units } ->
      Format.fprintf ppf "send -> %a (%d unit(s))" Node_id.pp dst units
  | Deliver { src } -> Format.fprintf ppf "deliver <- %a" Node_id.pp src
  | Retransmit { dst; attempt; frames } ->
      Format.fprintf ppf "retransmit -> %a (attempt %d, %d frame(s))" Node_id.pp dst
        attempt frames
  | Stall { dst } -> Format.fprintf ppf "STALL -> %a" Node_id.pp dst
  | Propose -> Format.pp_print_string ppf "proposes"
  | Reject -> Format.pp_print_string ppf "rejects"
  | Round { round } -> Format.fprintf ppf "enters round %d" round
  | Abort -> Format.pp_print_string ppf "abandons attempt"
  | Early_outcome { success } ->
      Format.fprintf ppf "broadcasts %s early outcome"
        (if success then "successful" else "failed")
  | Decide -> Format.pp_print_string ppf "DECIDES"

let pp ppf t =
  Format.fprintf ppf "#%-4d t=%12.6f  %a  %a" t.seq t.time Node_id.pp t.node pp_kind
    t.kind;
  (match t.instance with
  | Some view -> Format.fprintf ppf "  [%s]" (instance_of_view view)
  | None -> ());
  match t.parent with
  | Some p -> Format.fprintf ppf "  <- #%d" p
  | None -> ()
