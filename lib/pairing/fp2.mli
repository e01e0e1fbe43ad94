(** The quadratic extension F_p² = F_p[i]/(i² + 1), for primes
    p ≡ 3 (mod 4). The pairing target group G_T lives here. *)

module Z = Sagma_bigint.Bigint

type t = { re : Z.t; im : Z.t }
(** [re + im·i], both reduced mod p. *)

val make : p:Z.t -> Z.t -> Z.t -> t
(** [make ~p re im] reduces both components. *)

val zero : t
val one : t

val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool

val add : p:Z.t -> t -> t -> t
val sub : p:Z.t -> t -> t -> t
val neg : p:Z.t -> t -> t
val mul : p:Z.t -> t -> t -> t
val sqr : p:Z.t -> t -> t

val norm : p:Z.t -> t -> Z.t
(** N(a + bi) = a² + b² ∈ F_p. *)

val inv : p:Z.t -> t -> t
(** @raise Invalid_argument on zero. *)

val div : p:Z.t -> t -> t -> t

val conj : p:Z.t -> t -> t
(** Conjugation a + bi ↦ a − bi; this is inversion on the norm-1
    subgroup (in particular on μ_n, the pairing image). *)

val pow : p:Z.t -> t -> Z.t -> t
(** Square-and-multiply exponentiation, non-negative exponents. *)

val to_string : t -> string

val serialize : t -> string
(** Injective encoding usable as a hashtable key (BSGS tables). *)
