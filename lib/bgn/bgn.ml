(* The Boneh–Goh–Nissim somewhat homomorphic encryption scheme (TCC'05).

   Plaintexts live in Z_n with n = q1·q2. Level-1 ciphertexts are points
   of the order-n curve subgroup G: Enc(m) = m·g + r·h where h generates
   the order-q1 subgroup. One ciphertext–ciphertext multiplication is
   available via the pairing, landing in the target group G_T ⊂ F_p²
   (level 2), which remains additively homomorphic.

   Decryption raises to the power q1 (killing the blinding subgroup) and
   solves a discrete log, so decryptable plaintexts must come from a
   small, known range — exactly the constraint the paper's CRT channels
   (Hu et al., ACNS'12) work around. *)

module Z = Sagma_bigint.Bigint
module Curve = Sagma_pairing.Curve
module Fp2 = Sagma_pairing.Fp2
module Pairing = Sagma_pairing.Pairing
module Drbg = Sagma_crypto.Drbg

type public_key = {
  group : Pairing.group;
  g : Curve.point;   (* generator of G, order n *)
  h : Curve.point;   (* generator of the order-q1 blinding subgroup *)
  comb : Curve.comb option Atomic.t;  (* fixed-base tables for g and h, built on first use *)
}

type secret_key = { q1 : Z.t; q2 : Z.t }

type keypair = { pk : public_key; sk : secret_key }

(* Level-1 ciphertext: a curve point. *)
type c1 = Curve.point

(* Level-2 ciphertext: an element of G_T. *)
type c2 = Fp2.t

let n (pk : public_key) = pk.group.Pairing.n

(* The one place a public key is assembled: key generation and the wire
   decoder both pass the group and the two points. Nothing is computed:
   the comb tables wait for the first encryption, and ê(g, g) for the
   first level-2 decryption table. *)
let make_pk (group : Pairing.group) ~(g : Curve.point) ~(h : Curve.point) : public_key =
  { group; g; h; comb = Atomic.make None }

(* [keygen ~bits drbg] generates a key with an n of roughly [bits] bits
   (two primes of bits/2 each). The paper instantiates 1024-bit n for
   ~80-bit security; tests and default benches use smaller sizes. *)
let keygen ~(bits : int) (drbg : Drbg.t) : keypair =
  if bits < 16 then invalid_arg "Bgn.keygen: modulus too small";
  let rng = Drbg.rng drbg in
  let half = bits / 2 in
  let q1 = Z.random_prime rng ~bits:half in
  let rec distinct () =
    let q2 = Z.random_prime rng ~bits:(bits - half) in
    if Z.equal q1 q2 then distinct () else q2
  in
  let q2 = distinct () in
  let group = Pairing.make_group ~rng (Z.mul q1 q2) in
  let curve = group.Pairing.curve in
  (* g has order n = q1·q2. h = q2·(ℓ·P) for a random curve point P,
     redrawn while h = O: a nonzero h has order q1, and ℓ·P = O gives
     h = O too. *)
  let g = Pairing.random_order_n_point ~factors:[ q1; q2 ] group rng in
  let rec blinding () =
    let h = Curve.mul curve q2 (Curve.mul curve group.Pairing.l (Curve.random_point curve rng)) in
    if Curve.is_infinity h then blinding () else h
  in
  { pk = make_pk group ~g ~h:(blinding ()); sk = { q1; q2 } }

let random_blinding (pk : public_key) (drbg : Drbg.t) : Z.t =
  Z.random_below (Drbg.rng drbg) (n pk)

(* Operation counters: the quantities the paper's cost analysis (§3.4,
   §6) is expressed in. *)
module Metrics = Sagma_obs.Metrics

let m_enc1 = Metrics.counter "bgn.enc1"
let m_enc2 = Metrics.counter "bgn.enc2"
let m_add1 = Metrics.counter "bgn.add1"
let m_add2 = Metrics.counter "bgn.add2"
let m_smul1 = Metrics.counter "bgn.smul1"
let m_mul = Metrics.counter "bgn.mul"

(* --- level 1 ------------------------------------------------------------ *)

(* The comb tables for g and h. The first encryption under a key builds
   them, so a key that only ever aggregates (the server's) never holds
   them. Domains racing here may each build a copy; the slot is filled
   once, by the first to finish, and every later call reads it. *)
let comb (pk : public_key) : Curve.comb =
  match Atomic.get pk.comb with
  | Some c -> c
  | None ->
    let c = Curve.make_comb pk.group.Pairing.curve ~bits:(Z.num_bits (n pk)) [| pk.g; pk.h |] in
    if Atomic.compare_and_set pk.comb None (Some c) then c else Option.get (Atomic.get pk.comb)

(* m·g + r·h from the comb tables: the doublings shared by both bases,
   one addition per nonzero column, one inversion. *)
let blinded_point (pk : public_key) (drbg : Drbg.t) (m : Z.t) : Curve.point =
  let r = random_blinding pk drbg in
  Curve.comb_lincomb pk.group.Pairing.curve (comb pk) [| Z.erem m (n pk); r |]

let enc1 (pk : public_key) (drbg : Drbg.t) (m : Z.t) : c1 =
  Metrics.incr m_enc1;
  blinded_point pk drbg m

let enc1_int pk drbg m = enc1 pk drbg (Z.of_int m)

let add1 (pk : public_key) (a : c1) (b : c1) : c1 =
  Metrics.incr m_add1;
  Curve.add pk.group.Pairing.curve a b

let neg1 (pk : public_key) (a : c1) : c1 = Curve.neg pk.group.Pairing.curve a

(* Public scalars are recoded to their centred representative in
   (−n/2, n/2]: ciphertexts live in the order-n subgroup, so k and k − n
   act alike, and −1 (stored as n − 1 by the indicator polynomials)
   becomes a negation instead of a full-width ladder. *)
let centred (pk : public_key) (k : Z.t) : Z.t =
  let n = n pk in
  let k = if Z.sign k >= 0 && Z.lt k n then k else Z.erem k n in
  if Z.gt k (Z.shift_right n 1) then Z.sub k n else k

(* Multiply a ciphertext by a plaintext scalar (the ⊗-by-plaintext the
   paper uses for polynomial coefficients). *)
let smul1 (pk : public_key) (k : Z.t) (a : c1) : c1 =
  Metrics.incr m_smul1;
  (Curve.lincomb_batch pk.group.Pairing.curve [| [ (centred pk k, a) ] |]).(0)

let zero1 : c1 = Curve.Infinity

(* Signed combinations of level-1 ciphertexts ({!Curve.lincomb_batch}). *)
let recode (pk : public_key) combos = Array.map (List.map (fun (k, x) -> (centred pk k, x))) combos

(* The counters record what a combination actually costs: one [smul1]
   per term whose centred scalar is not ±1 (a ladder), one [add1] per
   live term after the first. *)
let count_ops live (terms : (Z.t * 'a) list) =
  let live_terms = List.filter (fun (k, x) -> (not (Z.is_zero k)) && live x) terms in
  let ladders = List.filter (fun (k, _) -> Z.num_bits (Z.abs k) > 1) live_terms in
  Metrics.add m_smul1 (List.length ladders);
  Metrics.add m_add1 (max 0 (List.length live_terms - 1))

let lincomb1_batch2 (pk : public_key) (first : (Z.t * c1) list array)
    (second : (Z.t * int) list array) : c1 array * c1 array =
  let first = recode pk first and second = recode pk second in
  Array.iter (count_ops (fun c -> not (Curve.is_infinity c))) first;
  Array.iter (count_ops (fun _ -> true)) second;
  Curve.lincomb_batch2 pk.group.Pairing.curve first second

let lincomb1_batch (pk : public_key) (combos : (Z.t * c1) list array) : c1 array =
  fst (lincomb1_batch2 pk combos [||])

let rerandomize1 (pk : public_key) (drbg : Drbg.t) (a : c1) : c1 =
  let r = random_blinding pk drbg in
  Curve.comb_lincomb ~plus:a pk.group.Pairing.curve (comb pk) [| Z.zero; r |]

(* --- level 2 ------------------------------------------------------------ *)

(* ê(m·g + r·h, g) = ê(g, g)^m · ê(g, h)^r: the level-1 encryption's
   point, paired with g. *)
let enc2 (pk : public_key) (drbg : Drbg.t) (m : Z.t) : c2 =
  Metrics.incr m_enc2;
  Pairing.pairing pk.group (blinded_point pk drbg m) pk.g

let add2 (pk : public_key) (a : c2) (b : c2) : c2 =
  Metrics.incr m_add2;
  Fp2.mul ~p:pk.group.Pairing.p a b

let zero2 : c2 = Fp2.one

(* The one ciphertext–ciphertext multiplication: G × G → G_T. *)
let mul (pk : public_key) (a : c1) (b : c1) : c2 =
  Metrics.incr m_mul;
  Pairing.pairing pk.group a b

(* --- batched multiplication ----------------------------------------------

   A level-2 sum Σ aᵢ·bᵢ is a product of pairings, so the whole batch
   shares one interleaved Miller loop and a single final exponentiation
   instead of paying one per term. The precomputed variant additionally
   skips the per-term Miller ladder for left arguments that repeat
   across calls (SAGMA pairs each encrypted value against every block
   constant). Counters: [bgn.mul] advances by the full list length —
   the same as calling {!mul} termwise — so cost models are unchanged. *)

type precomp1 = Pairing.Precomp.t

let precompute1 (pk : public_key) (a : c1) : precomp1 = Pairing.precompute pk.group a

let mul_many_pre (pk : public_key) (pairs : (precomp1 * c1) list) : c2 =
  Metrics.add m_mul (List.length pairs);
  Pairing.pairing_prod pk.group pairs

let mul_many (pk : public_key) (pairs : (c1 * c1) list) : c2 =
  Metrics.add m_mul (List.length pairs);
  Pairing.pairing_prod pk.group
    (List.map (fun (a, b) -> (Pairing.precompute pk.group a, b)) pairs)

(* --- decryption ----------------------------------------------------------

   Decryption tables are exposed so callers can reuse them: one SAGMA
   query decrypts many components under the same base, and any table
   solves any bound ({!Dlog.solve}). Level 1 raises
   the point to q1 with one [Curve.mul] and walks affine additions.
   Level 2 converts the ciphertext into {!Pairing.Gt} once: the q1
   power, the baby steps, the giant steps and the table keys all stay
   on Montgomery F_p² residues. *)

type dec1_table = Curve.point Dlog.table

type dec2_table = Pairing.Gt.t Dlog.table

let curve_ops (pk : public_key) : Curve.point Dlog.ops =
  let curve = pk.group.Pairing.curve in
  { Dlog.mul = Curve.add curve;
    inv = Curve.neg curve;
    one = Curve.Infinity;
    serialize = Curve.serialize }

let gt_ops (pk : public_key) : Pairing.Gt.t Dlog.ops =
  let g = pk.group in
  { Dlog.mul = Pairing.Gt.mul g;
    (* In μ_n ⊂ F_p²  conjugation is inversion: x^p = x⁻¹ since n | p+1. *)
    inv = Pairing.Gt.conj g;
    one = Pairing.Gt.one g;
    serialize = Pairing.Gt.key }

let make_dec1_table (kp : keypair) ~(max : int) : dec1_table =
  let curve = kp.pk.group.Pairing.curve in
  let base = Curve.mul curve kp.sk.q1 kp.pk.g in
  Dlog.make (curve_ops kp.pk) base ~max

let dec1 (kp : keypair) (table : dec1_table) ~(max : int) (c : c1) : int option =
  let curve = kp.pk.group.Pairing.curve in
  Dlog.solve table (Curve.mul curve kp.sk.q1 c) ~max

(* x^q1 on Montgomery residues. *)
let gt_q1 (kp : keypair) (x : Fp2.t) : Pairing.Gt.t =
  let g = kp.pk.group in
  Pairing.Gt.pow g (Pairing.Gt.of_fp2 g x) kp.sk.q1

(* The level-2 base ê(g, g)^q1 costs one pairing; a table grown with
   {!Dlog.resize} keeps it. *)
let make_dec2_table (kp : keypair) ~(max : int) : dec2_table =
  let pk = kp.pk in
  Dlog.make (gt_ops pk) (gt_q1 kp (Pairing.pairing pk.group pk.g pk.g)) ~max

let dec2 (kp : keypair) (table : dec2_table) ~(max : int) (c : c2) : int option =
  Dlog.solve table (gt_q1 kp c) ~max
