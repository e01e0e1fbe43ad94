(** Additively Symmetric Homomorphic Encryption (ASHE), the cipher behind
    Seabed (OSDI'16): Enc_k(m, id) = m + F_k(id) mod 2^b. Addition adds
    plaintexts and accumulates the contributing ids; decryption costs one
    PRF evaluation per id — the effect behind Seabed's ρ·C client cost
    under filtering (§6.2). *)

module Drbg = Sagma_crypto.Drbg

val modulus : int

type key

val gen_key : Drbg.t -> key

type ciphertext = {
  body : int;
  ids : int list;  (** multiset of contributing row ids *)
}

val encrypt : key -> id:int -> int -> ciphertext
val zero : ciphertext
val add : ciphertext -> ciphertext -> ciphertext
val decrypt : key -> ciphertext -> int

val decryption_operations : ciphertext -> int
(** The client-work metric of Table 10. *)
