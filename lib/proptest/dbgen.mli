(** Random relational scenarios — schema, domains, table and queries —
    the shared input shape of the differential oracle harness.

    Group domains are generated alongside the table because SAGMA's
    Setup (Algorithm 1) requires every group column's full domain up
    front; generated rows only ever use in-domain group values. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query

type scenario = {
  bucket_size : int;
  max_group_attrs : int;
  value_columns : string list;
  group_domains : (string * Value.t list) list;
  filter_domains : (string * Value.t list) list;
  schema : Table.schema;
  rows : Value.t array list;
  table : Table.t;
  queries : Query.t list;
}

val scenario_gen : ?max_rows:int -> ?max_queries:int -> unit -> scenario Gen.t

val equal_leakage_pair_gen :
  ?max_rows:int -> ?max_queries:int -> unit -> (scenario * Table.t) Gen.t
(** A scenario (with at least one row) plus a twin table with identical
    group and filter cells but different value-column plaintexts in
    every row — an equal-leakage pair under the §4.2 leakage function,
    the chosen-input precondition of the simulator-indistinguishability
    game ({!Sagma_games.Sim_ind}). Equality of the two
    [Sagma.Leakage.profile]s is property-checked in [test_games]. *)

val scenario_shrink : scenario Shrink.t
(** Drops rows first, then queries (never below one query). *)

val print_scenario : scenario -> string
