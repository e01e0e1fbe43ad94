(** The Paillier cryptosystem (EUROCRYPT'99): additively homomorphic
    encryption over Z_n with ciphertexts in Z_{n²}.

    Used by the §3.1/§3.2 static constructions (packed plaintexts fit the
    large message space and decryption is direct, not a discrete log) and
    by the CryptDB baseline. *)

module Z = Sagma_bigint.Bigint
module Drbg = Sagma_crypto.Drbg

type public_key = { n : Z.t; n2 : Z.t }
type secret_key = { lambda : Z.t; mu : Z.t }
type keypair = { pk : public_key; sk : secret_key }
type ciphertext = Z.t

val plaintext_bits : public_key -> int
(** Usable plaintext width (|n| − 1 bits). *)

val keygen : bits:int -> Drbg.t -> keypair

val encrypt : public_key -> Drbg.t -> Z.t -> ciphertext
val encrypt_int : public_key -> Drbg.t -> int -> ciphertext
val decrypt : keypair -> ciphertext -> Z.t

val add : public_key -> ciphertext -> ciphertext -> ciphertext
(** Homomorphic addition of plaintexts. *)

val smul : public_key -> Z.t -> ciphertext -> ciphertext
(** Multiply the plaintext by a public scalar. *)

val zero : public_key -> Drbg.t -> ciphertext
