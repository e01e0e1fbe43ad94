(** Synthetic TPC-H [lineitem] rows.

    The paper's evaluation aggregates TPC-H lineitem; the official dbgen
    is unavailable here, so rows are synthesized with the columns and
    cardinalities the benchmarks exercise. Deterministic given the DRBG
    seed; aggregation cost depends only on row count and bucket
    structure, so the substitution preserves the experiments'
    behaviour. *)

module Drbg = Sagma_crypto.Drbg

val schema : Table.schema
val ship_modes : string array

val generate : rows:int -> Drbg.t -> Table.t

(** Canonical evaluation queries. *)

val query_sum_by_returnflag : Query.t
val query_count_by_flag_status : Query.t
