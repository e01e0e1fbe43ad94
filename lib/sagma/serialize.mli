(** Wire codecs for SAGMA's key material, encrypted tables, tokens and
    aggregates — the layer under the client/server protocol and the CLI's
    persistence.

    Public values (tables, tokens, aggregates) and the secret client
    state have separate entry points; treat the latter's output like a
    private key file. BGN public keys travel as (n, g, h): the pairing
    group is reconstructed deterministically from n on decode. *)

module W = Sagma_wire.Wire
module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Curve = Sagma_pairing.Curve
module Sse = Sagma_sse.Sse
module Drbg = Sagma_crypto.Drbg

val max_pk_bits : int ref
(** Decode-side ceiling on the BGN modulus size (default 4096 bits).
    Reconstructing a pairing group runs a prime search in the size of n,
    so decoding refuses absurd key sizes with a [Wire.Decode_error]
    instead of stalling; fuzz harnesses tighten this further. *)

(** {1 Primitive codecs} *)

val put_z : W.sink -> Z.t -> unit
val get_z : W.source -> Z.t
val put_point : W.sink -> Curve.point -> unit
val put_value : W.sink -> Value.t -> unit
val get_value : W.source -> Value.t

(** {1 Encrypted data} *)

val put_enc_row : W.sink -> Scheme.enc_row -> unit
val get_enc_row : W.source -> Scheme.enc_row
val put_enc_table : W.sink -> Scheme.enc_table -> unit
val get_enc_table : W.source -> Scheme.enc_table

(** {1 Tokens and aggregates} *)

val put_sse_token : W.sink -> Sse.token -> unit
val get_sse_token : W.source -> Sse.token
val put_token : W.sink -> Scheme.token -> unit
val get_token : W.source -> Scheme.token
val put_agg_result : W.sink -> Scheme.agg_result -> unit
val get_agg_result : W.source -> Scheme.agg_result

(** {1 Whole-value helpers} *)

val enc_table_to_string : Scheme.enc_table -> string
val enc_table_of_string : string -> Scheme.enc_table
val token_to_string : Scheme.token -> string
val token_of_string : string -> Scheme.token
val agg_result_to_string : Scheme.agg_result -> string
val agg_result_of_string : string -> Scheme.agg_result
val client_to_string : Scheme.client -> string
(** The secret client state: contains the BGN factorization, SSE key
    and secret mappings. *)

val client_of_string : drbg:Drbg.t -> string -> Scheme.client
(** [drbg] supplies fresh randomness for future encryptions; decryption
    tables start empty. *)
