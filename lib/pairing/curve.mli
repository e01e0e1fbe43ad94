(** The supersingular elliptic curve E : y² = x³ + x over F_p,
    p ≡ 3 (mod 4), with #E(F_p) = p + 1.

    BGN key generation picks p = ℓ·n − 1 so the group has a subgroup of
    composite order n = q₁q₂. Points are affine with an explicit point
    at infinity. The affine operations ({!add}, {!double}, {!neg}, the
    slopes, {!is_on_curve}, {!random_point}) run on {!Z}, one egcd each.
    {!mul} and the signed combinations run in Jacobian coordinates on
    Montgomery residues of {!params.mont}: coordinates convert in once
    per input point and out once per result, with one field inversion
    per call or batch instead of one per step. *)

module Z = Sagma_bigint.Bigint

type point =
  | Infinity
  | Affine of Z.t * Z.t

type params = {
  p : Z.t;              (** the field prime *)
  mont : Z.Mont.ctx;    (** its Montgomery context, built once by {!make_params} *)
}
(** Curve coefficients are fixed (a = 1, b = 0). *)

val make_params : Z.t -> params
(** @raise Invalid_argument unless p ≡ 3 (mod 4). *)

val is_infinity : point -> bool
val equal : point -> point -> bool
val is_on_curve : params -> point -> bool

val neg : params -> point -> point
val add : params -> point -> point -> point
val double : params -> point -> point

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

(** {2 Fixed-base combs} *)

type comb
(** Lim–Lee comb tables (eight teeth) for a few fixed bases: for each
    base, the 255 nonzero sums of its multiples 2^(d·i)·P, i < 8, with
    d = ⌈bits/8⌉, affine in Montgomery form. *)

val make_comb : params -> bits:int -> point array -> comb
(** [make_comb cp ~bits bases] builds the tables for scalars below
    2^bits: 7·d doublings and 247 additions per base in Jacobian
    coordinates, then one {!Z.invm_batch} over every entry. *)

val comb_lincomb : ?plus:point -> params -> comb -> Z.t array -> point
(** [comb_lincomb ~plus cp c ks] is Σ kᵢ·Pᵢ + [plus] over the comb's
    bases, one scalar each with 0 <= kᵢ < 2^(8·d): the point
    {!lincomb_batch} gives, from d shared doublings, one mixed addition
    per nonzero column of each scalar, and one inversion.
    @raise Invalid_argument on a scalar count or range mismatch. *)

(** {2 Jacobian steps}

    The two steps every ladder here is made of, on Montgomery residues
    (X, Y, Z) ≘ (X/Z², Y/Z³), Z = 0 encoding the point at infinity.
    [Pairing.precompute] walks its Miller ladder with them, so each step
    also returns what the step's line needs. *)

type jacobian = private { jx : Z.Mont.el; jy : Z.Mont.el; jz : Z.Mont.el }

type line =
  | No_line  (** the step went through infinity or a vertical line *)
  | Tangent of { m : Z.Mont.el; z1z1 : Z.Mont.el; yy : Z.Mont.el }
      (** a doubling of (X1, Y1, Z1): M = 3X1² + Z1⁴, Z1², Y1² *)
  | Chord of { r : Z.Mont.el }
      (** a proper mixed addition: R = y₂·Z1³ − Y1; the result's Z is Z1·H *)

val jac_of_point : params -> point -> jacobian
(** Affine to Jacobian with Z = 1 (two {!Z.Mont.of_z}). *)

val jac_double_step : params -> jacobian -> jacobian * line
(** 2T; [No_line] when T is infinity or has Y = 0. *)

val jac_add_affine_step : params -> jacobian -> Z.Mont.el -> Z.Mont.el -> jacobian * line
(** T + (x₂, y₂) for an affine point in Montgomery form. T = O gives
    (x₂, y₂, 1) and [No_line]; T = (x₂, y₂) falls back to the doubling
    and its [Tangent]; T = −(x₂, y₂) gives O and [No_line]. *)

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
