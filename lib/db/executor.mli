(** Plaintext reference executor — the correctness oracle every encrypted
    scheme in this repository is tested against. *)

type result_row = {
  group : Value.t list;  (** grouping values, in GROUP BY order *)
  sum : int;             (** SUM of the value column (0 for COUNT) *)
  count : int;           (** group cardinality *)
}

val aggregate_value : Query.t -> result_row -> float
(** The aggregate the query asked for, derived from sum/count. *)

val run : Table.t -> Query.t -> result_row list
(** Evaluate the query; results sorted by group key. *)
