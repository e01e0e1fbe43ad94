(** CryptDB-style baseline (§2, §7): deterministic encryption for
    group/filter columns + Paillier for values. Supports arbitrary GROUP
    BY combinations at the price of leaking every queried column's full
    frequency histogram — the leakage-abuse vector SAGMA removes. *)

module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module Paillier = Sagma_paillier.Paillier

type client

type enc_row = {
  groups : string array;
  filters : string array;
  values : Paillier.ciphertext array;
}

type enc_table = { rows : enc_row array }

val setup :
  ?paillier_bits:int ->
  value_columns:string list ->
  group_columns:string list ->
  ?filter_columns:string list ->
  Drbg.t ->
  client

val det_value : client -> Value.t -> string
(** The deterministic ciphertext of a value (exposed so tests can build
    ground truth for the leakage-abuse attack). *)

val encrypt_table : client -> Table.t -> enc_table

type token

type group_aggregate = {
  det_group : string list;  (** deterministic group key (leaked!) *)
  sum_ct : Paillier.ciphertext option;
  count : int;              (** plaintext — CryptDB leaks it *)
}

type result_row = { group : Value.t list; sum : int; count : int }

val query : client -> enc_table -> Query.t -> result_row list

val leaked_histogram : enc_table -> column:int -> (string * int) list
(** The static leakage: the exact histogram of a group column, readable
    off the deterministic ciphertexts without any query. *)
