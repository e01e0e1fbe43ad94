(** Signed arbitrary-precision integers.

    This module is the repository's substitute for [zarith]: all
    cryptographic layers (Paillier, BGN, pairings) are built on it. Values
    are immutable; all operations are functional. *)

type t
(** A signed integer of unbounded magnitude. *)

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t
(** [of_int x] converts a native integer ([min_int] excluded). *)

val to_int_opt : t -> int option
(** [to_int_opt a] is [Some x] when [a] fits a native [int]. *)

val to_int_exn : t -> int
(** Like {!to_int_opt} but raises [Failure] when out of range. *)

(** {1 Predicates and comparisons} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_even : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val leq : t -> t -> bool
val gt : t -> t -> bool
val geq : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val pred : t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** Truncated division: quotient rounds toward zero and the remainder has
    the dividend's sign (like OCaml's [/] and [mod]).
    @raise Division_by_zero when the divisor is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: the remainder is always in [\[0, |b|)]. *)

val erem : t -> t -> t

val shift_left : t -> int -> t
(** [shift_left a k] multiplies by [2^k]. *)

val shift_right : t -> int -> t
(** [shift_right a k] divides the magnitude by [2^k] (use on non-negative
    values). *)

val num_bits : t -> int
(** Bit-length of the magnitude; [num_bits zero = 0]. *)

val bit : t -> int -> bool
(** [bit a i] tests bit [i] of the magnitude. *)

val pow : t -> int -> t
(** [pow b e] with a native-int exponent [e >= 0]. *)

(** {1 Text and byte encodings} *)

val to_string : t -> string
(** Decimal rendering, with a leading [-] for negatives. *)

val of_string : string -> t
(** Parses optional sign followed by decimal digits.
    @raise Invalid_argument on malformed input. *)

val to_hex : t -> string
val of_hex : string -> t

val of_bytes_be : string -> t
(** Big-endian unsigned byte decoding. *)

val to_bytes_be : t -> string
(** Big-endian minimal byte encoding of the magnitude ([""] for zero). *)

(** {1 Modular arithmetic}

    All modular operations require a positive modulus and reduce their
    inputs into [\[0, m)] first. *)

val addm : t -> t -> t -> t
val subm : t -> t -> t -> t
val mulm : t -> t -> t -> t

val powm : t -> t -> t -> t
(** [powm base expo m] is [base^expo mod m]; [expo] must be non-negative.
    Odd moduli of 96 bits or more take the windowed
    [Montgomery.powm]. *)

val powm_binary : t -> t -> t -> t
(** Square-and-multiply with {!mulm}: {!powm}'s path for small or even
    moduli, and the reference its Montgomery path is tested against. *)

val egcd : t -> t -> t * t * t
(** [egcd a b = (g, x, y)] with [a*x + b*y = g] and [g = gcd a b >= 0]. *)

val gcd : t -> t -> t

val invm : t -> t -> t option
(** Modular inverse, [None] when [gcd a m <> 1]. *)

val invm_exn : t -> t -> t

val invm_batch : t array -> t -> t array
(** [invm_batch xs m] inverts every element of [xs] modulo [m] with a
    single extended gcd (Montgomery's trick: prefix products, one
    {!invm_exn}, back-substitution — 3(n-1) modular multiplications
    instead of n inversions). Bumps the [bigint.invm_batch] counter once
    per call. @raise Failure if any element is not invertible. *)

(** Montgomery-form residues modulo a fixed odd modulus, for inner loops
    that cannot afford the division hiding in {!mulm}. [el] values are
    raw limb arrays; convert in/out with [of_z]/[to_z] once per batch
    and stay in form in between ([mul]/[add]/[sub] never divide). *)
module Mont : sig
  type ctx
  type el

  val make : t -> ctx
  (** @raise Invalid_argument for non-positive or even moduli and for
      moduli wider than [Montgomery.max_limbs] limbs. *)

  val of_z : ctx -> t -> el
  val to_z : ctx -> el -> t
  val one : ctx -> el
  val zero : ctx -> el
  val mul : ctx -> el -> el -> el

  val pow : ctx -> el -> t -> el
  (** [pow c a e] is a^e ([e >= 0]) in Montgomery form, with the fixed
      4-bit windows of [Montgomery.pow_mont]. *)

  val add : ctx -> el -> el -> el
  val sub : ctx -> el -> el -> el
  val is_zero : el -> bool
  val equal : el -> el -> bool

  val limbs : el -> int array
  (** The residue's k limbs of 26 bits, least significant first — the
      array itself, not a copy; do not mutate it. Residues are fully
      reduced, so equal limbs mean equal elements (hash keys). *)
end

val rem_int : t -> int -> int
(** [rem_int a d] is [|a| mod d] for a native [0 < d < 2^26], without a
    bignum division. @raise Invalid_argument for [d] out of range. *)

val iter_primes_below : int -> (int -> unit) -> unit
(** [iter_primes_below bound f] calls [f] on every prime below [bound],
    in increasing order (a sieve of Eratosthenes over a bitset). *)

val jacobi : t -> t -> int
(** Jacobi symbol [(a/n)] for odd positive [n]. *)

val sqrtm_p3 : t -> t -> t option
(** Square root modulo a prime [p ≡ 3 (mod 4)]; [None] for non-residues. *)

val crt : (t * t) list -> t
(** [crt \[(r1,m1); ...\]] is the unique [x mod Π mi] with [x ≡ ri (mod mi)];
    the moduli must be pairwise coprime. *)

(** {1 Randomness and primality}

    Random generation is parameterized over a byte source so this library
    stays free of crypto dependencies; [Sagma_crypto.Drbg] provides one. *)

type rng = int -> string
(** [rng n] must return [n] fresh random bytes. *)

val random_bits : rng -> int -> t
(** Uniform value with at most [bits] bits. *)

val random_below : rng -> t -> t
(** Uniform value in [\[0, bound)] (rejection sampling). *)

val is_probable_prime : rng -> t -> bool
(** Trial division by small primes, deterministic Miller–Rabin bases up to
    37, then 32 random Miller–Rabin rounds. *)

val random_prime : rng -> bits:int -> t
(** Random probable prime of exactly [bits] bits. *)

(** Operators for readable arithmetic-heavy code; [mod] is Euclidean. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
