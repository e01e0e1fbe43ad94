(** The static-shifting constructions (§3.1 and §3.2).

    Group membership is encoded client-side by shifting the value into a
    block of a packed Paillier plaintext; the homomorphic sum accumulates
    every group's subtotal in its own block and decryption is direct (no
    discrete log). §3.1 packs the whole domain (full access-pattern
    hiding, heavy storage); §3.2 packs per bucket and reveals the bucket
    membership. *)

module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Drbg = Sagma_crypto.Drbg
module Paillier = Sagma_paillier.Paillier

type client = {
  kp : Paillier.keypair;
  mapping : Mapping.t;
  value_bits : int;
  blocks_per_ct : int;
  drbg : Drbg.t;
}

val setup :
  ?paillier_bits:int ->
  ?value_bits:int ->
  ?mapping_strategy:Mapping.strategy ->
  domain:Value.t list ->
  Drbg.t ->
  client

(** §3.1: whole-domain packing. *)
module Full_domain : sig
  type enc_row = Paillier.ciphertext array
  (** ⌈|D| / blocks_per_ct⌉ ciphertexts; all blocks zero except the
      row's. *)

  val cts_per_row : client -> int

  val enc_row : client -> value:int -> group:Value.t -> enc_row
  (** v′ = v·|D_V|^f(g), the §3.1 blockwise shift. *)

  val aggregate : client -> enc_row list -> Paillier.ciphertext array
  (** Componentwise homomorphic sum (server side). *)

  val decrypt : client -> Paillier.ciphertext array -> (Value.t * int) list
  (** Unpack blocks and map indices back to group values. *)
end

(** §3.2: bucketized packing — one ciphertext per row, bucket id
    revealed. *)
module Bucketized : sig
  type client_b = { base : client; bucket_size : int }

  type enc_row = {
    bucket : int;  (** revealed to the server *)
    ct : Paillier.ciphertext;
  }

  val setup :
    ?paillier_bits:int ->
    ?value_bits:int ->
    ?mapping_strategy:Mapping.strategy ->
    bucket_size:int ->
    domain:Value.t list ->
    Drbg.t ->
    client_b

  val enc_row : client_b -> value:int -> group:Value.t -> enc_row
  val aggregate : client_b -> enc_row list -> (int * Paillier.ciphertext) list
  val decrypt : client_b -> (int * Paillier.ciphertext) list -> (Value.t * int) list
end
