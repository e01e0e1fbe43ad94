(** Seabed-style baseline (OSDI'16; §2, §6.2, §7): ASHE value columns
    splayed per common group value, an overflow column with deterministic
    tags for uncommon values. Single-attribute grouping natively
    (Table 11); multi-attribute support assumes client-side
    pre-computation, reflected in {!splay_columns}. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Drbg = Sagma_crypto.Drbg

type client

type enc_row = {
  id : int;
  splay : Ashe.ciphertext array;
  splay_count : Ashe.ciphertext array;
  other : Ashe.ciphertext;
  other_count : Ashe.ciphertext;
  det_group : string option;  (** None for rows with common values *)
}

type enc_table = { rows : enc_row array; num_dummies : int }

val setup : common:Value.t list -> Drbg.t -> client

val encrypt_table : client -> Table.t -> value_column:string -> group_column:string -> enc_table

type result_row = { group : Value.t; sum : int; count : int }

val query : client -> enc_table -> result_row list * int
(** Returns the per-group results and the number of client-side
    decryption operations (the Table 10 metric). *)

val splay_columns : l:int -> t:int -> b:int -> int
(** §6.2 storage model: (B+1)^i − 1 columns per combination of i
    grouping attributes. *)

val leaked_histogram : enc_table -> (string * int) list
(** Only uncommon values appear in the deterministic column — the
    flattening Seabed trades storage for. *)
