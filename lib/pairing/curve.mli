(** The supersingular elliptic curve E : y² = x³ + x over F_p,
    p ≡ 3 (mod 4), with #E(F_p) = p + 1.

    BGN key generation picks p = ℓ·n − 1 so the group has a subgroup of
    composite order n = q₁q₂. Affine representation with an explicit
    point at infinity; scalar multiplication runs in Jacobian coordinates
    internally (one field inversion total instead of one per step). *)

module Z = Sagma_bigint.Bigint

type point =
  | Infinity
  | Affine of Z.t * Z.t

type params = { p : Z.t }
(** The field prime; curve coefficients are fixed (a = 1, b = 0). *)

val make_params : Z.t -> params
(** @raise Invalid_argument unless p ≡ 3 (mod 4). *)

val is_infinity : point -> bool
val equal : point -> point -> bool
val is_on_curve : params -> point -> bool

val neg : params -> point -> point
val add : params -> point -> point -> point
val double : params -> point -> point
val sub : params -> point -> point -> point

val mul : params -> Z.t -> point -> point
(** Scalar multiplication, non-negative scalars. *)

val mul_int : params -> int -> point -> point

val lincomb_batch : params -> (Z.t * point) list array -> point array
(** [lincomb_batch cp combos] evaluates every signed combination
    Σ kᵢ·Pᵢ of [combos] (any integer scalars; zero terms, [Infinity]
    points and empty combinations contribute nothing). Each combination
    is one interleaved double-and-add in Jacobian coordinates, so a
    ±1 term costs one mixed addition; all results are normalised
    together with a single {!Z.invm_batch}, and results already at
    Z = 1 (a lone ±1 term) need none. *)

val lincomb_batch2 :
  params -> (Z.t * point) list array -> (Z.t * int) list array -> point array * point array
(** [lincomb_batch2 cp first second] is [lincomb_batch cp first] plus a
    second stage: each combination of [second] has terms [(k, i)]
    standing for k·(result [i] of [first]). The second stage reads the
    first's Jacobian results directly, so both stages share the one
    batched inversion — e.g. column sums and then combinations of them. *)

val tangent_slope : params -> Z.t -> Z.t -> Z.t
(** Slope of the tangent at an affine point (used by Miller's algorithm,
    which shares one slope between line evaluation and point update). *)

val chord_slope : params -> Z.t -> Z.t -> Z.t -> Z.t -> Z.t
(** Slope of the chord through two points with distinct x. *)

val random_point : params -> Z.rng -> point
(** Uniformly random affine point (never [Infinity]). *)

val serialize : point -> string
(** Injective encoding usable as a hashtable key. *)

val to_string : point -> string
