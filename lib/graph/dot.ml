type style = {
  crashed : Node_set.t;
  border : Node_set.t;
  names : Node_id.Names.t;
}

let default_style =
  { crashed = Node_set.empty; border = Node_set.empty; names = Node_id.Names.empty }

let pp ?(style = default_style) ppf g =
  Format.fprintf ppf "graph cliffedge {@.";
  Format.fprintf ppf "  node [shape=circle, style=filled, fillcolor=white];@.";
  Node_set.iter
    (fun p ->
      let label = Format.asprintf "%a" (Node_id.Names.pp style.names) p in
      let colour =
        if Node_set.mem p style.crashed then "indianred1"
        else if Node_set.mem p style.border then "orange"
        else "white"
      in
      Format.fprintf ppf "  %d [label=\"%s\", fillcolor=\"%s\"];@." (Node_id.to_int p)
        label colour)
    (Graph.nodes g);
  List.iter
    (fun (u, v) ->
      Format.fprintf ppf "  %d -- %d;@." (Node_id.to_int u) (Node_id.to_int v))
    (Graph.edges g);
  Format.fprintf ppf "}@."

let to_string ?style g = Format.asprintf "%a" (pp ?style) g
