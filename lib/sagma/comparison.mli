(** Table 11: qualitative comparison of related work. *)

type security = None_ | Partial | Full

type scheme_row = {
  name : string;
  aggregation : bool;
  grouping : bool;
  security : security;
  proof : bool;
  multiple_attributes : bool;
}

val rows : scheme_row list
val render : unit -> string
