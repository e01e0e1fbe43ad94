(** Dynamically shifted bucketization for a single grouping attribute
    (§3.3), with packed shift polynomials.

    One pairing per row per CRT channel (instead of B with unit shifts),
    at the price of a (d−1)²-range discrete log per channel and a CRT
    capacity of B·value_bits bits. Kept as the §3.3 construction and the
    packed-vs-unit ablation. COUNT aggregates the per-channel packed
    shifts at level 1 ("count aggregates the shifts", §6). *)

module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Drbg = Sagma_crypto.Drbg
module Bgn = Sagma_bgn.Bgn
module Crt = Sagma_bgn.Crt_channels

type client = {
  kp : Bgn.keypair;
  mapping : Mapping.t;
  channels : Crt.t;
  bucket_size : int;
  value_bits : int;
  shift_polys : Z.t array array;
      (** per channel: coefficients with targets 2^(value_bits·j) mod d *)
  drbg : Drbg.t;
}

val setup :
  ?bgn_bits:int ->
  ?value_bits:int ->
  ?channel_bits:int ->
  ?mapping_strategy:Mapping.strategy ->
  bucket_size:int ->
  domain:Value.t list ->
  Drbg.t ->
  client

val shift_value : client -> Value.t -> Z.t
(** s(g) = |D_V|^(f(g) mod B) — Table 3's E_Gender contents. *)

type enc_row = {
  value_cts : Bgn.c1 array;
  monomial_cts : Bgn.c1 array;  (** Enc(xᵉ), e = 1..B−1 *)
  bucket : int;
}

val enc_row : client -> value:int -> group:Value.t -> enc_row

type bucket_aggregate = {
  agg_bucket : int;
  sum_cts : Bgn.c2 array;
  count_cts : Bgn.c1 array;
  agg_rows : int;
}

val aggregate : client -> enc_row list -> bucket_aggregate list

type result_row = { group : Value.t; sum : int; count : int }

val decrypt : client -> bucket_aggregate list -> total_rows:int -> result_row list
