open Cliffedge_graph

type strategy =
  | Chain_border
  | Star_rewire

let plan strategy graph view =
  let border = Graph.border graph view in
  match strategy with
  | Chain_border -> (
      match Node_set.elements border with
      | [] | [ _ ] -> Plan.empty
      | first :: rest ->
          let rec chain a = function
            | [] -> []
            | b :: rest -> (a, b) :: chain b rest
          in
          Plan.make (chain first rest))
  | Star_rewire -> (
      match Node_set.min_elt_opt border with
      | None -> Plan.empty
      | Some hub ->
          Plan.make
            (Node_set.fold
               (fun p acc -> if Node_id.equal p hub then acc else (hub, p) :: acc)
               border []))

let propose strategy graph _self view = plan strategy graph view

let pp_strategy ppf = function
  | Chain_border -> Format.pp_print_string ppf "chain"
  | Star_rewire -> Format.pp_print_string ppf "star"
