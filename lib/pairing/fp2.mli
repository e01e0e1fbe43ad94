(** The quadratic extension F_p² = F_p[i]/(i² + 1), for primes
    p ≡ 3 (mod 4), on {!Z}. The pairing target group G_T lives here.
    This is the form level-2 ciphertexts take between the pairing and
    the wire, and the arithmetic of [Pairing.pairing_affine] and of the
    tests' G_T oracle; the fast paths run on Montgomery residues
    ([Pairing.Gt]). Only what those callers use is here. *)

module Z = Sagma_bigint.Bigint

type t = { re : Z.t; im : Z.t }
(** [re + im·i], both reduced mod p. *)

val make : p:Z.t -> Z.t -> Z.t -> t
(** [make ~p re im] reduces both components. *)

val zero : t
val one : t

val equal : t -> t -> bool
val is_one : t -> bool

val mul : p:Z.t -> t -> t -> t
val sqr : p:Z.t -> t -> t

val pow : p:Z.t -> t -> Z.t -> t
(** Square-and-multiply exponentiation, non-negative exponents. *)

val serialize : t -> string
(** Injective byte encoding. *)
