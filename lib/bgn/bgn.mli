(** The Boneh–Goh–Nissim somewhat homomorphic encryption scheme (TCC'05).

    Plaintexts live in Z_n, n = q₁q₂. Level-1 ciphertexts are points of
    the order-n curve subgroup: Enc(m) = m·g + r·h with h generating the
    order-q₁ blinding subgroup. Ciphertexts add homomorphically and admit
    {e one} multiplication via the pairing, landing in the target group
    G_T ⊆ F_p² (level 2), which is again additively homomorphic.

    Decryption raises to q₁ (killing the blinding) and solves a bounded
    discrete log — the constraint SAGMA's CRT channels
    ({!Crt_channels}) work around. Each job has one implementation:
    {!make_pk} assembles every public key, {!enc2} is a pairing, and
    one decryption table per level serves any bound. *)

module Z = Sagma_bigint.Bigint
module Curve = Sagma_pairing.Curve
module Fp2 = Sagma_pairing.Fp2
module Pairing = Sagma_pairing.Pairing
module Drbg = Sagma_crypto.Drbg

type public_key = private {
  group : Pairing.group;
  g : Curve.point;   (** generator of G, order n *)
  h : Curve.point;   (** generator of the order-q₁ blinding subgroup *)
  comb : Curve.comb option Atomic.t;
      (** {!Curve.make_comb} tables for g and h: empty until the first
          {!enc1}, {!enc2} or {!rerandomize1} under the key fills it,
          once. Never on the wire. *)
}

type secret_key = { q1 : Z.t; q2 : Z.t }

type keypair = { pk : public_key; sk : secret_key }

type c1 = Curve.point
(** Level-1 ciphertext. *)

type c2 = Fp2.t
(** Level-2 (post-pairing) ciphertext. *)

val n : public_key -> Z.t
(** The plaintext modulus n = q₁q₂ (public). *)

val make_pk : Pairing.group -> g:Curve.point -> h:Curve.point -> public_key
(** The one public-key constructor: {!keygen} and the wire decoder both
    call it. It computes nothing: no pairing, and the comb tables wait
    for the first encryption. *)

val keygen : bits:int -> Drbg.t -> keypair
(** [keygen ~bits] draws two primes of [bits/2] each. The paper's setting
    is 1024-bit n; tests and default benches use smaller moduli. *)

(** {1 Level 1} *)

val enc1 : public_key -> Drbg.t -> Z.t -> c1
(** m·g + r·h with r uniform below n: the point {!Curve.lincomb_batch}
    gives, from the key's comb tables ({!Curve.comb_lincomb}; the first
    encryption under the key builds them). *)

val enc1_int : public_key -> Drbg.t -> int -> c1
val add1 : public_key -> c1 -> c1 -> c1
val neg1 : public_key -> c1 -> c1

val smul1 : public_key -> Z.t -> c1 -> c1
(** Multiply the plaintext by a public scalar (the ⊗-by-plaintext used
    for SAGMA's polynomial coefficients). The scalar is recoded to its
    centred representative in (−n/2, n/2], so ±1 (including n − 1)
    costs no ladder. *)

val zero1 : c1
(** The trivial encryption of 0. *)

val lincomb1_batch : public_key -> (Z.t * c1) list array -> c1 array
(** [lincomb1_batch pk combos] is every Σ kᵢ·Cᵢ of [combos] with public
    scalars, via {!Curve.lincomb_batch} after the same centred recoding
    as {!smul1}: a ±1 coefficient costs one mixed addition, and the
    whole batch shares one field inversion. [bgn.smul1] advances once per
    term whose scalar is not ±1 and [bgn.add1] once per non-zero,
    non-[zero1] term after the first of its combination — the
    operations actually performed. *)

val lincomb1_batch2 :
  public_key -> (Z.t * c1) list array -> (Z.t * int) list array -> c1 array * c1 array
(** Two-stage {!lincomb1_batch} ({!Curve.lincomb_batch2}): the second
    stage combines results of the first by index, under the same one
    inversion. *)

val rerandomize1 : public_key -> Drbg.t -> c1 -> c1
(** C + r·h with r drawn as {!enc1} draws it, from the same tables. *)

(** {1 Level 2}

    Level-2 ciphertexts come out of the pairing: {!mul}, {!mul_many},
    {!mul_many_pre} and {!enc2}. They add with {!add2}. *)

val enc2 : public_key -> Drbg.t -> Z.t -> c2
(** [enc2 pk drbg m] is ê(m·g + r·h, g) = ê(g, g)^m·ê(g, h)^r, with r
    drawn exactly as {!enc1} draws it: the {!enc1} point paired with g.
    Among the [bgn.*] counters only [bgn.enc2] moves. *)

val add2 : public_key -> c2 -> c2 -> c2
val zero2 : c2

val mul : public_key -> c1 -> c1 -> c2
(** The one ciphertext–ciphertext multiplication: ê(C₁, C₂). *)

type precomp1 = Pairing.Precomp.t
(** Cached Miller-loop lines for a level-1 ciphertext used as the left
    argument of many multiplications (see {!Pairing.precompute}). *)

val precompute1 : public_key -> c1 -> precomp1

val mul_many : public_key -> (c1 * c1) list -> c2
(** [mul_many pk [(a1,b1); ...]] is Σᵢ aᵢ·bᵢ at level 2 — equal to
    folding {!mul} results with {!add2}, but computed as one product of
    pairings with a {e single} shared final exponentiation. Each extra
    pair costs one [Pairing.precompute] (a ladder walk plus one F_p
    inversion) and 4 Montgomery multiplications per Miller step; the
    shared final exponentiation is ~1.5|p| multiplications. The empty
    list yields {!zero2}. [bgn.mul] advances by the list length, exactly
    as the termwise loop would. *)

val mul_many_pre : public_key -> (precomp1 * c1) list -> c2
(** Like {!mul_many} for left arguments already precomputed — the hot
    path of [Scheme.aggregate], which pairs each encrypted value against
    every block constant of every query. *)

(** {1 Decryption}

    One baby-step/giant-step table per level ({!Dlog}) serves every
    decryption under a key, and any table solves any bound: [~max] of
    {!dec1} / {!dec2} is the bound of that one solve, not of the table.
    A table made for [~max:b] costs about √b group operations to build
    and holds √b entries; a solve for bound m then walks at most
    m/√b + 1 giant steps. Callers build one table for the largest bound
    they expect and reuse it (as [Scheme.decrypt] does), rebuilding
    only to trade build cost for shorter walks. *)

type dec1_table = Curve.point Dlog.table
type dec2_table = Pairing.Gt.t Dlog.table

val make_dec1_table : keypair -> max:int -> dec1_table
(** The base q₁·g costs one [Curve.mul]. *)

val dec1 : keypair -> dec1_table -> max:int -> c1 -> int option

val make_dec2_table : keypair -> max:int -> dec2_table
(** The base ê(g, g)^q₁ costs one pairing and one power. {!Dlog.resize}
    grows a table for a new bound without either. *)

val dec2 : keypair -> dec2_table -> max:int -> c2 -> int option
