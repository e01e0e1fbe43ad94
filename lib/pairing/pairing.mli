(** The modified Tate pairing ê : G × G → μ_n ⊆ F_p²^* on the
    supersingular curve y² = x³ + x.

    G is the order-n subgroup of E(F_p) with p = ℓ·n − 1. The pairing is
    ê(P, Q) = f_{n,P}(φ(Q))^((p²−1)/n) with distortion map
    φ(x, y) = (−x, i·y), computed by Miller's algorithm with denominator
    elimination. It is bilinear, symmetric and non-degenerate — the
    bilinear group BGN requires.

    {2 Cost model}

    The production surface is context-oriented:

    All of it runs on Montgomery residues of F_p ({!Z.Mont}, the
    context in [group.curve]); "mul" below is one [M.mul].

    - {!precompute} runs the Miller point ladder for a fixed left
      argument once, with {!Curve.jac_double_step} and
      {!Curve.jac_add_affine_step} (the Jacobian steps of [Curve.mul]),
      and caches each step's line scaled to a unit imaginary
      coefficient, d0 + dx·x_Q + y_Q·i. Only the line algebra is
      Pairing's. Cost: one ladder walk of ~|n| steps at ~15 muls each,
      plus ~5 muls per line and one [fp_inv] for the batched division.
    - {!pairing_prod} evaluates any number of (precomp, point) pairs in
      one interleaved Miller loop — the accumulator squares once per
      step {e regardless of the pair count} — and pays exactly {b one
      final exponentiation per call}. Marginal cost per extra pair:
      4 muls per Miller step (a Karatsuba product against the
      unit-imaginary line), no inversions. The final exponentiation
      uses p + 1 = ℓ·n and the Frobenius f^p = f̄: it raises
      f̄²·N(f)⁻¹ to ℓ, about 1.5|p| muls, most of them in its one
      [fp_inv].
    - [fp_inv] (internal) is the F_p inversion x^(p−2) on Montgomery
      residues. It runs once per {!precompute} and once per
      {!pairing_prod} call. At 64-bit keys it beats the egcd; at
      1024-bit keys it costs ~5–7 ms against ~0.7 ms for the egcd,
      under 5% of a query, and keeps [bigint.invm] off this path.
    - {!pairing} is [fun g p q -> pairing_prod g [(precompute g p, q)]]:
      still the right call for one-off pairings, but callers that pair a
      fixed left argument repeatedly (or can share a final
      exponentiation across a sum of products) should use the
      context-oriented surface; see [Bgn.mul_many].

    - {!Gt} is G_T on the same residues: one F_p² product is 4 muls,
      and its q₁ power (BGN decryption) is ~1.5|n| products. Its values
      never leave Montgomery form; their {!Gt.key} reads the limbs.

    {!pairing_affine} is the original affine-coordinate loop (one field
    inversion per Miller step). It is retained as the reference
    implementation the property suite compares against and for
    old-vs-new benchmarking; new code should not call it. *)

module Z = Sagma_bigint.Bigint

type group = {
  p : Z.t;          (** field prime, p = ℓ·n − 1 ≡ 3 (mod 4) *)
  n : Z.t;          (** order of the pairing subgroup (odd; composite for BGN) *)
  l : Z.t;          (** cofactor ℓ *)
  curve : Curve.params;
      (** the curve over F_p; its [mont] is the one Montgomery context
          every fast path of the group shares *)
}

val make_group : ?rng:Z.rng -> Z.t -> group
(** [make_group n] finds the smallest cofactor ℓ ≡ 0 (mod 4) with
    ℓ·n − 1 prime. Deterministic given [n] when [rng] is omitted, so a
    group can be reconstructed from [n] alone (serialization relies on
    this). @raise Invalid_argument when [n] is even. *)

val random_order_n_point : ?factors:Z.t list -> group -> Z.rng -> Curve.point
(** Uniformly random point of order {e exactly} n. For prime n the
    built-in rejection is complete and [factors] may be omitted; for
    composite n pass the distinct prime factors of n, and candidates of
    proper-divisor order are rejected (BGN keygen passes [q1; q2]).
    @raise Invalid_argument when a factor does not divide n. *)

(** Cached Miller-loop lines for a fixed left argument. Values are
    immutable once built and safe to share across domains; they are
    bound to the group that built them and are not serialized (rebuild
    with {!precompute} after decoding — cheaper than one pairing). *)
module Precomp : sig
  type line

  type t = {
    point : Curve.point;         (** the fixed left argument *)
    lines : line option array;   (** one slot per Miller step; [None] = vertical *)
  }

end

val precompute : group -> Curve.point -> Precomp.t
(** One Jacobian Miller-ladder walk for the fixed left argument and one
    batched F_p inversion of the line scales (an exponentiation, not
    an egcd). Precomputing [Infinity] yields an empty cache whose pairs
    evaluate to 1. *)

val pairing_prod : group -> (Precomp.t * Curve.point) list -> Fp2.t
(** [pairing_prod g [(pc1, q1); ...]] is Π ê(P_i, Q_i), computed with a
    single interleaved Miller loop and {b one} final exponentiation.
    Pairs with an infinity on either side contribute 1; the empty (or
    all-infinity) product is 1. Bumps [pairing.pairings] once per live
    pair and [pairing.prod_calls] once per non-trivial call. *)

val pairing : group -> Curve.point -> Curve.point -> Fp2.t
(** ê(P, Q); returns 1 when either argument is the point at infinity.
    Equivalent to [pairing_prod g [(precompute g p, q)]], for one-off
    pairings. *)

val pairing_affine : group -> Curve.point -> Curve.point -> Fp2.t
(** Reference implementation on affine coordinates (one field inversion
    per Miller step, ~50× a multiplication) with the plain final
    exponentiation to (p² − 1)/n. Deprecated for production use;
    retained as the differential oracle of the property tests. *)

(** G_T on Montgomery F_p² residues, for the discrete-log walk of BGN
    level-2 decryption. Elements enter once through {!of_fp2} and never
    leave; they are bound to the group that made them. *)
module Gt : sig
  type t

  val of_fp2 : group -> Fp2.t -> t
  val one : group -> t
  val mul : group -> t -> t -> t

  val conj : group -> t -> t
  (** Conjugation, which is inversion on μ_n (norm-1 elements). *)

  val pow : group -> t -> Z.t -> t
  (** [pow g a e] is a^(e mod n), square-and-multiply; the result stays
      in Montgomery form. *)

  val key : t -> string
  (** Both coordinates' limbs as bytes: injective on elements, usable as
      a hash-table key. *)
end
