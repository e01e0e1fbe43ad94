(* The modified Tate pairing ê : G × G → μ_n ⊆ F_p²^* on the supersingular
   curve y² = x³ + x.

   [G] is the order-[n] subgroup of E(F_p) where #E(F_p) = p + 1 = ℓ·n.
   The pairing is ê(P, Q) = f_{n,P}(φ(Q))^((p²−1)/n) where φ(x, y) =
   (−x, i·y) is the distortion map into E(F_p²) \ E(F_p), computed with
   Miller's algorithm.

   Denominator elimination: vertical-line values at φ(Q) = (−x_Q, i·y_Q)
   lie in F_p^* (the x-coordinate of φ(Q) is in the base field), and every
   F_p^* value is annihilated by the final exponentiation, because
   (p²−1)/n = (p−1)·(p+1)/n and a^(p−1) = 1. So the Miller loop only
   accumulates the (F_p²-valued) tangent/chord line evaluations.

   The production path runs on Montgomery residues and pays one F_p
   inversion per call: [precompute] walks the Miller loop once per left
   argument in Jacobian coordinates and stores each line scaled to a unit
   imaginary coefficient (the F_p^* scale factors are also annihilated
   by the final exponentiation), and [pairing_prod] evaluates any number
   of such precomputed lines against their right arguments in one
   interleaved loop with a single shared final exponentiation, taken
   through the Frobenius. The original affine loop survives as
   [pairing_affine], the reference the property tests compare against. *)

module Z = Sagma_bigint.Bigint
module M = Z.Mont

type group = {
  p : Z.t;          (* field prime, p = l*n - 1, p ≡ 3 (mod 4) *)
  n : Z.t;          (* order of the pairing subgroup *)
  l : Z.t;          (* cofactor *)
  curve : Curve.params;  (* carries the one Montgomery context for F_p *)
}

(* The sieve's divisors: every prime below 2^16 as a 16-bit entry, 13 KB
   in every process that links this module (an int array would take
   52 KB). *)
let sieve_primes =
  let b = Buffer.create 16384 in
  Z.iter_primes_below (1 lsl 16) (Buffer.add_uint16_le b);
  Buffer.contents b

(* Construct the group for a given subgroup order [n]: find the smallest
   cofactor ℓ ≡ 0 (mod 4) such that p = ℓ·n − 1 is prime. ℓ ≡ 0 (mod 4)
   forces p ≡ 3 (mod 4) since n is odd.

   A sieve runs ahead of the primality test: with n mod q computed once
   per sieve prime q, the candidate ℓ·n − 1 has the factor q exactly
   when ℓ·(n mod q) ≡ 1 (mod q). Only candidates with no factor q < p
   reach [Z.is_probable_prime]. A skipped candidate is one the test
   would have rejected before its random rounds: by trial division, or
   by a fixed Miller–Rabin base unless it is a strong pseudoprime to all
   twelve. So the search draws the same random bytes and returns the
   same ℓ as the unsieved loop. *)
let make_group ?(rng : Z.rng option) (n : Z.t) : group =
  if Z.is_even n then invalid_arg "Pairing.make_group: n must be odd";
  let rng =
    match rng with
    | Some r -> r
    | None ->
      (* Primality testing needs random bases; derive them from n itself so
         group construction is deterministic. *)
      let d = ref 0 in
      fun len ->
        incr d;
        let h = ref (Z.erem n (Z.of_int 1000000007)) in
        String.init len (fun i ->
            h := Z.erem (Z.add (Z.mul_int !h 31) (Z.of_int (i + !d))) (Z.of_int 16777213);
            Char.chr (Z.to_int_exn (Z.erem !h (Z.of_int 256))))
  in
  let n_mod = Bytes.create (String.length sieve_primes) in
  for i = 0 to (String.length sieve_primes / 2) - 1 do
    Bytes.set_uint16_le n_mod (2 * i) (Z.rem_int n (String.get_uint16_le sieve_primes (2 * i)))
  done;
  let sieved l p =
    let below = match Z.to_int_opt p with Some p -> p | None -> max_int in
    let rec go i =
      i < String.length sieve_primes
      &&
      let q = String.get_uint16_le sieve_primes i in
      q < below && ((l * Bytes.get_uint16_le n_mod i mod q = 1) || go (i + 2))
    in
    go 0
  in
  let rec find l =
    let p = Z.pred (Z.mul (Z.of_int l) n) in
    if (not (sieved l p)) && Z.is_probable_prime rng p then (Z.of_int l, p) else find (l + 4)
  in
  let l, p = find 4 in
  { p; n; l; curve = Curve.make_params p }

(* A uniformly random point of order exactly n. Cofactor clearing leaves
   a point whose order divides n; the is_infinity rejection rules out
   order 1, which for prime n already forces order exactly n. For
   composite n the proper divisors can only be excluded knowing the
   factorization, so callers pass the distinct prime factors and each
   candidate is checked to survive multiplication by every n/q. *)
let random_order_n_point ?(factors : Z.t list = []) (g : group) (rng : Z.rng) : Curve.point =
  List.iter
    (fun q ->
      if not (Z.is_zero (Z.erem g.n q)) then
        invalid_arg "Pairing.random_order_n_point: factor does not divide n")
    factors;
  let full_order cand =
    List.for_all
      (fun q -> not (Curve.is_infinity (Curve.mul g.curve (Z.div g.n q) cand)))
      factors
  in
  let rec go () =
    let r = Curve.random_point g.curve rng in
    let cand = Curve.mul g.curve g.l r in
    if Curve.is_infinity cand || not (full_order cand) then go () else cand
  in
  go ()

let m_pairings = Sagma_obs.Metrics.counter "pairing.pairings"
let m_miller_steps = Sagma_obs.Metrics.counter "pairing.miller_steps"
let m_prod_calls = Sagma_obs.Metrics.counter "pairing.prod_calls"

(* --- reference affine path --------------------------------------------------

   One fused Miller step: the line through [t] and [u] (tangent when they
   coincide) evaluated at φ(Q), together with t + u — sharing the single
   slope inversion between the line value and the point update. Vertical
   lines return no line factor (eliminated by the final exponentiation). *)
let miller_step (g : group) (t : Curve.point) (u : Curve.point) ~(xq : Z.t) ~(yq : Z.t) :
    Fp2.t option * Curve.point =
  let p = g.p in
  match (t, u) with
  | Curve.Infinity, v | v, Curve.Infinity -> (None, v)
  | Curve.Affine (x1, y1), Curve.Affine (x2, y2) ->
    let doubling = Z.equal x1 x2 && Z.equal y1 y2 in
    if Z.equal x1 x2 && not doubling then (None, Curve.Infinity)
    else if doubling && Z.is_zero y1 then (None, Curve.Infinity)
    else begin
      let l =
        if doubling then Curve.tangent_slope g.curve x1 y1
        else Curve.chord_slope g.curve x1 y1 x2 y2
      in
      let x3 = Z.erem (Z.sub (Z.sub (Z.mul l l) x1) x2) p in
      let y3 = Z.erem (Z.sub (Z.mul l (Z.sub x1 x3)) y1) p in
      (* l(φQ) with x_φQ = −xq ∈ F_p and y_φQ = yq·i. *)
      let re = Z.erem (Z.sub (Z.neg y1) (Z.mul l (Z.sub (Z.neg xq) x1))) p in
      (Some { Fp2.re; im = yq }, Curve.Affine (x3, y3))
    end

(* Miller's algorithm computing f_{n,P}(φ(Q)) in affine coordinates (one
   field inversion per step), followed by the plain final exponentiation
   to (p² − 1)/n — the oracle the fast path is tested against. *)
let pairing_affine (g : group) (pp : Curve.point) (qq : Curve.point) : Fp2.t =
  match (pp, qq) with
  | Curve.Infinity, _ | _, Curve.Infinity -> Fp2.one
  | Curve.Affine _, Curve.Affine (xq, yq) ->
    Sagma_obs.Metrics.incr m_pairings;
    let p = g.p in
    let f = ref Fp2.one in
    let t = ref pp in
    let steps = ref 0 in
    let nbits = Z.num_bits g.n in
    for i = nbits - 2 downto 0 do
      f := Fp2.sqr ~p !f;
      let lv, t2 = miller_step g !t !t ~xq ~yq in
      (match lv with Some lv -> f := Fp2.mul ~p !f lv | None -> ());
      t := t2;
      incr steps;
      if Z.bit g.n i then begin
        let lv, t3 = miller_step g !t pp ~xq ~yq in
        (match lv with Some lv -> f := Fp2.mul ~p !f lv | None -> ());
        t := t3;
        incr steps
      end
    done;
    Sagma_obs.Metrics.add m_miller_steps !steps;
    Fp2.pow ~p !f (Z.div (Z.pred (Z.mul p p)) g.n)

(* --- Montgomery-form F_p helpers ----------------------------------------- *)

(* x⁻¹ = x^(p−2) for x ≠ 0, in Montgomery form. One per [precompute]
   and one per [pairing_prod]; an exponentiation rather than an egcd so
   the whole path stays on Montgomery residues. *)
let fp_inv (g : group) (x : M.el) : M.el = M.pow g.curve.Curve.mont x (Z.sub g.p Z.two)

(* --- fixed-argument precomputation ------------------------------------------

   The Miller loop's point ladder depends only on the left argument P and
   the (fixed) loop schedule of n, never on Q. [precompute] runs that
   ladder once, in Jacobian coordinates on Montgomery residues (zero
   divisions), producing for every step the coefficients (c0, cx, cy) of
   the projectively scaled line value  c0 + cx·x_Q + cy·y_Q·i  at
   φ(Q) = (−x_Q, i·y_Q). Every non-vertical line has cy ≠ 0, so each
   line is then divided by its cy (one batched inversion for the whole
   ladder) and stored as d0 + dx·x_Q + y_Q·i with a unit imaginary
   coefficient. All these scale factors live in F_p^* and are
   annihilated by the final exponentiation, so evaluating the stored
   lines is exactly equivalent to the affine loop. *)

module Precomp = struct
  type line = { d0 : M.el; dx : M.el }

  type t = {
    point : Curve.point;         (* the fixed left argument *)
    lines : line option array;   (* one slot per Miller step; None = vertical *)
  }
end

let precompute (g : group) (pp : Curve.point) : Precomp.t =
  match pp with
  | Curve.Infinity -> { Precomp.point = pp; lines = [||] }
  | Curve.Affine _ ->
    let cp = g.curve in
    let mc = cp.Curve.mont in
    let ( *: ) a b = M.mul mc a b and ( -: ) a b = M.sub mc a b in
    let one = M.one mc in
    let t0 = Curve.jac_of_point cp pp in
    let xp = t0.Curve.jx and yp = t0.Curve.jy in
    (* Lines in ladder order, before the division by cy. *)
    let lines = ref [] in
    let t = ref t0 in
    (* One ladder step from T to T'. Tangent at T = (X1, Y1, Z1): slope
       λ = M/Z3, and the line at φ(Q) scaled by Z3·Z1Z1 ∈ F_p^* is
         (M·X1 − 2·Y1²) + M·Z1Z1·x_Q + Z3·Z1Z1·y_Q·i,
       with cy = Z3·Z1Z1 = 2·Y1·Z1³ ≠ 0. Chord through T and the affine
       P: slope λ = R/Z3, and the line anchored at P, scaled by Z3, is
         (R·x_P − Z3·y_P) + R·x_Q + Z3·y_Q·i,
       with cy = Z3 = Z1·H ≠ 0. Vertical lines and steps through O carry
       no line: they are F_p-valued at φ(Q) and eliminated. *)
    let step (t', line) =
      let z3 = t'.Curve.jz in
      let l =
        match line with
        | Curve.No_line -> None
        | Curve.Tangent { m; z1z1; yy } ->
          Some ((m *: !t.Curve.jx) -: M.add mc yy yy, m *: z1z1, z3 *: z1z1)
        | Curve.Chord { r } -> Some ((r *: xp) -: (z3 *: yp), r, z3)
      in
      lines := l :: !lines;
      t := t'
    in
    let nbits = Z.num_bits g.n in
    for i = nbits - 2 downto 0 do
      step (Curve.jac_double_step cp !t);
      if Z.bit g.n i then step (Curve.jac_add_affine_step cp !t xp yp)
    done;
    let raw = Array.of_list (List.rev !lines) in
    (* Montgomery's trick over every cy: prefix products, one [fp_inv],
       back-substitution. prefix.(i) is the product of the cy before
       line i; vertical lines contribute nothing. *)
    let nraw = Array.length raw in
    let prefix = Array.make nraw one in
    let acc = ref one in
    Array.iteri
      (fun i l ->
        prefix.(i) <- !acc;
        match l with None -> () | Some (_, _, cy) -> acc := !acc *: cy)
      raw;
    let inv = ref (fp_inv g !acc) in
    let lines = Array.make nraw None in
    for i = nraw - 1 downto 0 do
      match raw.(i) with
      | None -> ()
      | Some (c0, cx, cy) ->
        let cy_inv = !inv *: prefix.(i) in
        inv := !inv *: cy;
        lines.(i) <- Some { Precomp.d0 = c0 *: cy_inv; dx = cx *: cy_inv }
    done;
    { Precomp.point = pp; lines }

(* --- multi-pairing ----------------------------------------------------------

   F_p² arithmetic on Montgomery residues (i² = −1 since p ≡ 3 (mod 4)). *)

type mfp2 = { mre : M.el; mim : M.el }

let mfp2_mul mc a b =
  (* Karatsuba: three multiplications. *)
  let rr = M.mul mc a.mre b.mre and ii = M.mul mc a.mim b.mim in
  let t = M.mul mc (M.add mc a.mre a.mim) (M.add mc b.mre b.mim) in
  { mre = M.sub mc rr ii; mim = M.sub mc (M.sub mc t rr) ii }

let mfp2_sqr mc a =
  (* (a+bi)² = (a−b)(a+b) + 2ab·i — two multiplications. *)
  let s = M.add mc a.mre a.mim and d = M.sub mc a.mre a.mim in
  { mre = M.mul mc s d; mim = M.mul mc (M.add mc a.mre a.mre) a.mim }

let mfp2_one mc = { mre = M.one mc; mim = M.zero mc }

(* Fixed windows of w bits, MSB first: 2^w − 1 products up front, then
   one product per nonzero window instead of one per set bit. Windows of
   4 pay off only on long exponents (BGN's q1 power), not on the final
   exponentiation's short cofactor ℓ, which keeps w = 1. *)
let mfp2_pow mc a e =
  let nbits = Z.num_bits e in
  let w = if nbits > 64 then 4 else 1 in
  let pows = Array.make (1 lsl w) (mfp2_one mc) in
  for i = 1 to (1 lsl w) - 1 do
    pows.(i) <- mfp2_mul mc pows.(i - 1) a
  done;
  let acc = ref (mfp2_one mc) in
  for j = ((nbits + w - 1) / w) - 1 downto 0 do
    let d = ref 0 in
    for b = w - 1 downto 0 do
      acc := mfp2_sqr mc !acc;
      d := (2 * !d) + if Z.bit e ((j * w) + b) then 1 else 0
    done;
    if !d > 0 then acc := mfp2_mul mc !acc pows.(!d)
  done;
  !acc

let fp2_of_mont mc (a : mfp2) : Fp2.t = { Fp2.re = M.to_z mc a.mre; im = M.to_z mc a.mim }

(* The final exponentiation f^((p²−1)/n). Since p + 1 = ℓ·n the exponent
   is (p − 1)·ℓ, and p ≡ 3 (mod 4) makes the Frobenius f^p the conjugate
   f̄, so f^(p−1) = f̄/f = f̄²/N(f) with the norm N(f) = re² + im² ∈ F_p:
   one [fp_inv] and a power of |ℓ| bits instead of 2|p| bits. f = 0 maps
   to 0, as the plain power does. *)
let final_exp (g : group) (f : mfp2) : Fp2.t =
  let mc = g.curve.Curve.mont in
  if M.is_zero f.mre && M.is_zero f.mim then Fp2.zero
  else begin
    let rr = M.mul mc f.mre f.mre and ii = M.mul mc f.mim f.mim in
    let ri = M.mul mc f.mre f.mim in
    let ninv = fp_inv g (M.add mc rr ii) in
    (* f̄² = (re² − im²) − 2·re·im·i *)
    let u =
      { mre = M.mul mc (M.sub mc rr ii) ninv;
        mim = M.mul mc (M.sub mc (M.zero mc) (M.add mc ri ri)) ninv }
    in
    fp2_of_mont mc (mfp2_pow mc u g.l)
  end

(* Product of pairings Π ê(P_i, Q_i) with a single interleaved Miller
   loop and one shared final exponentiation. All pairs share the loop
   schedule (the bits of n), so the accumulator squares once per step
   regardless of the number of pairs:  (Π f_i)² · Π l_i = Π (f_i² · l_i).
   Each line is a + y_Q·i with a = d0 + dx·x_Q, and f·(a + y_Q·i) is a
   Karatsuba product: four multiplications per pair per step.
   Pairs with an infinity on either side contribute the factor 1. *)
let pairing_prod (g : group) (pairs : (Precomp.t * Curve.point) list) : Fp2.t =
  let mc = g.curve.Curve.mont in
  let live =
    List.filter_map
      (fun ((pc : Precomp.t), q) ->
        match (pc.Precomp.point, q) with
        | Curve.Infinity, _ | _, Curve.Infinity -> None
        | Curve.Affine _, Curve.Affine (xq, yq) ->
          Some (pc.Precomp.lines, M.of_z mc xq, M.of_z mc yq))
      pairs
  in
  match live with
  | [] -> Fp2.one
  | _ :: _ ->
    let nlive = List.length live in
    Sagma_obs.Metrics.incr m_prod_calls;
    Sagma_obs.Metrics.add m_pairings nlive;
    let f = ref (mfp2_one mc) in
    let idx = ref 0 in
    let steps = ref 0 in
    let step () =
      let i = !idx in
      List.iter
        (fun (lines, mxq, myq) ->
          match lines.(i) with
          | None -> ()
          | Some { Precomp.d0; dx } ->
            let a = M.add mc d0 (M.mul mc dx mxq) in
            let { mre; mim } = !f in
            let rr = M.mul mc mre a and ii = M.mul mc mim myq in
            let t = M.mul mc (M.add mc mre mim) (M.add mc a myq) in
            f := { mre = M.sub mc rr ii; mim = M.sub mc (M.sub mc t rr) ii })
        live;
      incr idx;
      incr steps
    in
    let nbits = Z.num_bits g.n in
    for i = nbits - 2 downto 0 do
      f := mfp2_sqr mc !f;
      step ();
      if Z.bit g.n i then step ()
    done;
    Sagma_obs.Metrics.add m_miller_steps (!steps * nlive);
    final_exp g !f

(* The scalar entry point: one precomputation, one pair, one final
   exponentiation. Callers that pair against the same left argument
   repeatedly should hold a [Precomp.t] instead. *)
let pairing (g : group) (pp : Curve.point) (qq : Curve.point) : Fp2.t =
  pairing_prod g [ (precompute g pp, qq) ]

(* G_T on Montgomery residues, for BGN decryption: the q1 power and the
   baby-step/giant-step walk stay in Montgomery form, and table keys are
   the residues' limbs. Residues are fully reduced, so a key names one
   element. *)
module Gt = struct
  type t = mfp2

  let of_fp2 (g : group) (a : Fp2.t) : t =
    let mc = g.curve.Curve.mont in
    { mre = M.of_z mc a.Fp2.re; mim = M.of_z mc a.Fp2.im }

  let one (g : group) : t = mfp2_one g.curve.Curve.mont
  let mul (g : group) (a : t) (b : t) : t = mfp2_mul g.curve.Curve.mont a b

  (* Inversion on μ_n, whose elements have norm 1. *)
  let conj (g : group) (a : t) : t =
    let mc = g.curve.Curve.mont in
    { a with mim = M.sub mc (M.zero mc) a.mim }

  let pow (g : group) (a : t) (e : Z.t) : t = mfp2_pow g.curve.Curve.mont a (Z.erem e g.n)

  (* Both coordinates' 26-bit limbs, four bytes each. *)
  let key (a : t) : string =
    let re = M.limbs a.mre and im = M.limbs a.mim in
    let k = Array.length re in
    let b = Bytes.create (8 * k) in
    for i = 0 to k - 1 do
      Bytes.set_int32_le b (4 * i) (Int32.of_int re.(i));
      Bytes.set_int32_le b (4 * (k + i)) (Int32.of_int im.(i))
    done;
    Bytes.unsafe_to_string b
end
