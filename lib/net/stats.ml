open Cliffedge_graph

type channel = {
  mutable count : int;
  mutable flush : float;
  mutable floor : float;
  mutable recent : float list;
}

type t = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable units_sent : int;
  (* Fault-injection and ARQ accounting (zero on reliable channels). *)
  mutable fault_dropped : int;
  mutable duplicated : int;
  mutable retransmitted : int;
  mutable deduped : int;
  (* One record per ordered pair that carried traffic: the source's row
     maps each destination to it, so a send hashes two ids and
     allocates nothing once the pair has a record, whatever the ids'
     magnitude.  The network keeps its delivery schedule in the same
     record, so each sender has one row. *)
  channels : channel Node_id.Tbl.t Node_id.Tbl.t;
}

let create () =
  {
    sent = 0;
    delivered = 0;
    dropped = 0;
    units_sent = 0;
    fault_dropped = 0;
    duplicated = 0;
    retransmitted = 0;
    deduped = 0;
    channels = Node_id.Tbl.create 16;
  }

let send_channel t ~src ~dst ~units =
  if units < 0 then invalid_arg "Stats.record_send: negative units";
  t.sent <- t.sent + 1;
  t.units_sent <- t.units_sent + units;
  let row = Node_id.row t.channels src in
  match Node_id.Tbl.find row dst with
  | c ->
      c.count <- c.count + 1;
      c
  | exception Not_found ->
      let c = { count = 1; flush = neg_infinity; floor = neg_infinity; recent = [] } in
      Node_id.Tbl.add row dst c;
      c

let record_send t ~src ~dst ~units = ignore (send_channel t ~src ~dst ~units)

let find_channel t ~src ~dst = Node_id.Tbl.find (Node_id.Tbl.find t.channels src) dst

let record_delivery t = t.delivered <- t.delivered + 1

let record_drop t = t.dropped <- t.dropped + 1

let record_fault_drop t = t.fault_dropped <- t.fault_dropped + 1

let record_duplicate t = t.duplicated <- t.duplicated + 1

let record_retransmit t = t.retransmitted <- t.retransmitted + 1

let record_dedup t = t.deduped <- t.deduped + 1

let sent t = t.sent

let delivered t = t.delivered

let dropped t = t.dropped

let fault_dropped t = t.fault_dropped

let duplicated t = t.duplicated

let retransmitted t = t.retransmitted

let deduped t = t.deduped

let units_sent t = t.units_sent

let fold_pairs f t init =
  Node_id.Tbl.fold
    (fun src row acc -> Node_id.Tbl.fold (fun dst _ acc -> f src dst acc) row acc)
    t.channels init

let pairs t =
  fold_pairs (fun src dst acc -> (src, dst) :: acc) t []
  |> List.sort
       (fun (s1, d1) (s2, d2) ->
         let c = Node_id.compare s1 s2 in
         if c <> 0 then c else Node_id.compare d1 d2)

let pair_count t ~src ~dst =
  match find_channel t ~src ~dst with c -> c.count | exception Not_found -> 0

let communicating_nodes t =
  fold_pairs (fun src dst acc -> Node_set.add src (Node_set.add dst acc)) t Node_set.empty

let pp ppf t =
  Format.fprintf ppf
    "messages: %d sent (%d units), %d delivered, %d dropped, %d node(s) involved"
    t.sent t.units_sent t.delivered t.dropped
    (Node_set.cardinal (communicating_nodes t));
  (* Fault/ARQ counters appear only when a fault plan or the ARQ
     transport was in play, keeping reliable-channel output unchanged. *)
  if t.fault_dropped > 0 || t.duplicated > 0 || t.retransmitted > 0 || t.deduped > 0
  then
    Format.fprintf ppf "; faults: %d lost, %d duplicated, %d retransmitted, %d deduped"
      t.fault_dropped t.duplicated t.retransmitted t.deduped
