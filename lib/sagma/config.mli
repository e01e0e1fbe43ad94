(** Scheme-level configuration: the parameters fixed at Setup time
    (Algorithm 1) plus implementation knobs.

    Table layout follows §2: value columns (aggregated), group columns
    (GROUP BY targets) and filter columns (WHERE targets); one column may
    play several roles. *)

type t = {
  bucket_size : int;
      (** B: values per bucket — fewer buckets = less leakage, more
          computation (§3.2, §5, Figure 6a) *)
  max_group_attrs : int;
      (** t: most grouping attributes in one query; bounds storage to
          m(l,t) monomials per row (§4.1) *)
  value_columns : string list;
  group_columns : string list;
  filter_columns : string list;
  range_filter_columns : string list;
      (** int columns supporting BETWEEN filters via dyadic SSE keywords *)
  range_bits : int;
      (** width of range-filterable values: domain [0, 2^range_bits) *)
  bgn_bits : int;
      (** BGN modulus size (paper: 1024; tests default smaller) *)
  channel_bits : int;
      (** CRT channel modulus width (Hu et al. trade-off, §6) *)
  value_bits : int;
      (** |D_V|: bit width of a value entry (paper: 32) *)
}

val make :
  ?bucket_size:int ->
  ?max_group_attrs:int ->
  ?filter_columns:string list ->
  ?range_filter_columns:string list ->
  ?range_bits:int ->
  ?bgn_bits:int ->
  ?channel_bits:int ->
  ?value_bits:int ->
  value_columns:string list ->
  group_columns:string list ->
  unit ->
  t
(** @raise Invalid_argument on inconsistent parameters (empty column
    lists, t larger than l, duplicates). *)

val group_column_index : t -> string -> int
val value_column_index : t -> string -> int
val num_group_columns : t -> int
val num_value_columns : t -> int
