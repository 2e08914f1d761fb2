(** Graphviz export.

    Renders a knowledge graph, optionally highlighting crashed regions
    and their borders, so that scenarios can be inspected visually
    (`dot -Tpng`). *)

type style = {
  crashed : Node_set.t;  (** filled red *)
  border : Node_set.t;  (** filled orange *)
  names : Node_id.Names.t;  (** display names *)
}

val default_style : style

val to_string : ?style:style -> Graph.t -> string
(** DOT source for the graph. *)

val pp : ?style:style -> Format.formatter -> Graph.t -> unit
