(* Property suite for the pairing substrate: curve group laws, scalar
   arithmetic, and bilinearity / distortion-map consistency of the
   modified Tate pairing.

   Counts are small: every case costs one or more Miller loops. The
   prime-order Mersenne group (2^61 − 1) keeps cases fast while
   exercising the same code paths BGN uses; one composite-order group
   checks the μ_n membership BGN depends on. *)

module Z = Sagma_bigint.Bigint
module Curve = Sagma_pairing.Curve
module Fp2 = Sagma_pairing.Fp2
module Pairing = Sagma_pairing.Pairing
module Gen = Sagma_prop.Gen
module R = Sagma_prop.Runner

let n61 = Z.of_string "2305843009213693951" (* Mersenne prime 2^61 - 1 *)
let group = Pairing.make_group n61
let params = group.Pairing.curve

let q1 = Z.of_string "1073741827"
let q2 = Z.of_string "1073741831"
let group_comp = Pairing.make_group (Z.mul q1 q2)

(* Order-n points and scalars drawn from the case DRBG, so every
   counterexample replays from its printed seed. *)
let point_gen : Curve.point Gen.t =
 fun d -> Pairing.random_order_n_point group (Sagma_crypto.Drbg.rng d)

let scalar_gen : Z.t Gen.t = Gen.bigint_below n61

let point_arb = R.arbitrary ~print:Curve.to_string point_gen

let pp2 (a, b) = Printf.sprintf "(%s, %s)" (Curve.to_string a) (Curve.to_string b)

let pp3 (a, b, c) =
  Printf.sprintf "(%s, %s, %s)" (Curve.to_string a) (Curve.to_string b) (Curve.to_string c)

let point2_arb = R.arbitrary ~print:pp2 (Gen.pair point_gen point_gen)
let point3_arb = R.arbitrary ~print:pp3 (Gen.triple point_gen point_gen point_gen)

(* --- curve group laws ------------------------------------------------------- *)

let t_closure = R.test ~count:25 ~name:"curve ops stay on the curve" point2_arb
    (fun (a, b) ->
      Curve.is_on_curve params a
      && Curve.is_on_curve params (Curve.add params a b)
      && Curve.is_on_curve params (Curve.double params a)
      && Curve.is_on_curve params (Curve.neg params a))

let t_add_comm = R.test ~count:25 ~name:"point addition commutative" point2_arb
    (fun (a, b) -> Curve.equal (Curve.add params a b) (Curve.add params b a))

let t_add_assoc = R.test ~count:20 ~name:"point addition associative" point3_arb
    (fun (a, b, c) ->
      Curve.equal
        (Curve.add params a (Curve.add params b c))
        (Curve.add params (Curve.add params a b) c))

let t_identity = R.test ~count:15 ~name:"infinity is the identity" point_arb
    (fun a ->
      Curve.equal (Curve.add params a Curve.Infinity) a
      && Curve.equal (Curve.add params Curve.Infinity a) a
      && Curve.is_infinity (Curve.add params a (Curve.neg params a)))

let t_double = R.test ~count:15 ~name:"double = add P P" point_arb
    (fun a -> Curve.equal (Curve.double params a) (Curve.add params a a))

let t_mul_distrib = R.test ~count:12 ~name:"(j + k)P = jP + kP"
    (R.arbitrary
       ~print:(fun ((j, k), pt) ->
         Printf.sprintf "(%s, %s, %s)" (Z.to_string j) (Z.to_string k) (Curve.to_string pt))
       (Gen.pair (Gen.pair scalar_gen scalar_gen) point_gen))
    (fun ((j, k), pt) ->
      Curve.equal
        (Curve.mul params (Z.add j k) pt)
        (Curve.add params (Curve.mul params j pt) (Curve.mul params k pt)))

let t_mul_assoc = R.test ~count:12 ~name:"j(kP) = (jk mod n)P"
    (R.arbitrary
       ~print:(fun ((j, k), pt) ->
         Printf.sprintf "(%s, %s, %s)" (Z.to_string j) (Z.to_string k) (Curve.to_string pt))
       (Gen.pair (Gen.pair scalar_gen scalar_gen) point_gen))
    (fun ((j, k), pt) ->
      Curve.equal
        (Curve.mul params j (Curve.mul params k pt))
        (Curve.mul params (Z.erem (Z.mul j k) n61) pt))

let t_mul_small = R.test ~count:12 ~name:"mul agrees with repeated addition"
    (R.arbitrary
       ~print:(fun (k, pt) -> Printf.sprintf "(%d, %s)" k (Curve.to_string pt))
       (Gen.pair (Gen.int_range 0 12) point_gen))
    (fun (k, pt) ->
      let expected = ref Curve.Infinity in
      for _ = 1 to k do
        expected := Curve.add params !expected pt
      done;
      Curve.equal (Curve.mul_int params k pt) !expected)

let t_order = R.test ~count:10 ~name:"order-n points die at n" point_arb
    (fun a -> Curve.is_infinity (Curve.mul params n61 a))

(* --- pairing ----------------------------------------------------------------- *)

(* The fast pairing. Its G_T values are compared and combined with
   [Fp2] on [Z], the oracle, which shares no code with the Montgomery
   residues the pairing runs on. *)
let e p q = Pairing.pairing group p q

let t_bilinear = R.test ~count:10 ~name:"bilinearity e(jP, kQ) = e(P,Q)^(jk)"
    (R.arbitrary
       ~print:(fun ((j, k), (p, q)) ->
         Printf.sprintf "(%s, %s, %s, %s)" (Z.to_string j) (Z.to_string k) (Curve.to_string p)
           (Curve.to_string q))
       (Gen.pair (Gen.pair scalar_gen scalar_gen) (Gen.pair point_gen point_gen)))
    (fun ((j, k), (p, q)) ->
      Fp2.equal
        (e (Curve.mul params j p) (Curve.mul params k q))
        (Fp2.pow ~p:group.Pairing.p (e p q) (Z.erem (Z.mul j k) n61)))

let t_additive = R.test ~count:10 ~name:"e(P+Q, R) = e(P,R) * e(Q,R)" point3_arb
    (fun (p, q, r) ->
      Fp2.equal (e (Curve.add params p q) r) (Fp2.mul ~p:group.Pairing.p (e p r) (e q r)))

let t_symmetric = R.test ~count:10 ~name:"pairing symmetric (distortion map)" point2_arb
    (fun (p, q) -> Fp2.equal (e p q) (e q p))

let t_scalar_slides = R.test ~count:10 ~name:"e(kP, Q) = e(P, kQ)"
    (R.arbitrary
       ~print:(fun (k, (p, q)) ->
         Printf.sprintf "(%s, %s, %s)" (Z.to_string k) (Curve.to_string p) (Curve.to_string q))
       (Gen.pair scalar_gen (Gen.pair point_gen point_gen)))
    (fun (k, (p, q)) ->
      Fp2.equal (e (Curve.mul params k p) q) (e p (Curve.mul params k q)))

let t_nondegenerate = R.test ~count:8 ~name:"e(P, P) <> 1 off infinity" point_arb
    (fun p ->
      if Curve.is_infinity p then raise R.Discard;
      not (Fp2.equal (e p p) Fp2.one))

let t_infinity = R.test ~count:8 ~name:"pairing with infinity is 1" point_arb
    (fun p ->
      Fp2.equal (e p Curve.Infinity) Fp2.one
      && Fp2.equal (e Curve.Infinity p) Fp2.one)

let t_target_order = R.test ~count:6 ~name:"pairing lands in mu_n" point2_arb
    (fun (p, q) -> Fp2.equal (Fp2.pow ~p:group.Pairing.p (e p q) n61) Fp2.one)

(* --- multi-pairing / precomputation surface ----------------------------------- *)

let t_new_vs_affine = R.test ~count:12 ~name:"fast pairing equals affine reference" point2_arb
    (fun (p, q) -> Fp2.equal (Pairing.pairing group p q) (Pairing.pairing_affine group p q))

let t_precomp_reuse = R.test ~count:8 ~name:"one precomp serves many right points" point3_arb
    (fun (p, q, r) ->
      let pre = Pairing.precompute group p in
      Fp2.equal (Pairing.pairing_prod group [ (pre, q) ]) (e p q)
      && Fp2.equal (Pairing.pairing_prod group [ (pre, r) ]) (e p r))

let t_prod_product = R.test ~count:8 ~name:"pairing_prod equals product of pairings"
    (R.arbitrary
       ~print:(fun pairs ->
         String.concat "; " (List.map (fun (p, q) -> pp2 (p, q)) pairs))
       (Gen.list ~max_len:3 (Gen.pair point_gen point_gen)))
    (fun pairs ->
      let prod =
        Pairing.pairing_prod group
          (List.map (fun (p, q) -> (Pairing.precompute group p, q)) pairs)
      in
      let expected =
        List.fold_left
          (fun acc (p, q) -> Fp2.mul ~p:group.Pairing.p acc (Pairing.pairing_affine group p q))
          Fp2.one pairs
      in
      Fp2.equal prod expected)

let t_prod_infinity = R.test ~count:6 ~name:"pairing_prod skips infinity pairs" point2_arb
    (fun (p, q) ->
      let pre_p = Pairing.precompute group p in
      let pre_inf = Pairing.precompute group Curve.Infinity in
      Fp2.equal
        (Pairing.pairing_prod group [ (pre_p, q); (pre_inf, q); (pre_p, Curve.Infinity) ])
        (e p q)
      && Fp2.equal (Pairing.pairing_prod group []) Fp2.one)

let t_prod_additive = R.test ~count:8 ~name:"e(P+Q, R) via one pairing_prod call" point3_arb
    (fun (p, q, r) ->
      (* Multi-pairing form of the additive law: one call, shared final
         exponentiation, versus two affine pairings multiplied in G_T. *)
      let lhs =
        Pairing.pairing_prod group
          [ (Pairing.precompute group p, r); (Pairing.precompute group q, r) ]
      in
      Fp2.equal lhs (e (Curve.add params p q) r))

(* --- signed linear combinations ------------------------------------------------

   [Curve.lincomb_batch] against an affine oracle. Terms draw their
   points from a small pool holding Infinity, P, −P, 2P and an unrelated
   Q, so one combination often repeats or cancels a point: that drives
   the mixed addition into its doubling and vertical-line branches
   mid-chain.

   The oracle is a test-local double-and-add over [Curve.double] and
   [Curve.add], which stay on [Z] with one egcd per step: it shares no
   code with the Jacobian path on Montgomery residues that [Curve.mul]
   and [Curve.lincomb_batch2] run. *)

let affine_mul cp k pt =
  let acc = ref Curve.Infinity in
  for i = Z.num_bits k - 1 downto 0 do
    acc := Curve.double cp !acc;
    if Z.bit k i then acc := Curve.add cp !acc pt
  done;
  !acc

let half_n = Z.shift_right n61 1

let signed_scalar_gen : Z.t Gen.t =
  Gen.oneof
    [ Gen.oneofl
        [ Z.zero; Z.one; Z.minus_one; Z.pred n61; half_n; Z.succ half_n; Z.neg half_n;
          Z.two; Z.neg Z.two; n61 ];
      scalar_gen;
      Gen.map Z.neg scalar_gen ]

let combo_gen : (Z.t * int) list Gen.t = Gen.list ~max_len:6 (Gen.pair signed_scalar_gen (Gen.int_below 5))

let lincomb_case_gen = Gen.triple point_gen point_gen (Gen.list ~max_len:4 combo_gen)

let pool (p, q) = [| Curve.Infinity; p; Curve.neg params p; Curve.double params p; q |]

let oracle_lincomb cp terms =
  List.fold_left
    (fun acc (k, pt) ->
      let kp = affine_mul cp (Z.abs k) pt in
      Curve.add cp acc (if Z.sign k < 0 then Curve.neg cp kp else kp))
    Curve.Infinity terms

let pp_lincomb_case (p, q, combos) =
  Printf.sprintf "%s; %s" (pp2 (p, q))
    (String.concat " | "
       (List.map
          (fun terms ->
            String.concat " + "
              (List.map (fun (k, i) -> Printf.sprintf "%s·#%d" (Z.to_string k) i) terms))
          combos))

let t_lincomb = R.test ~count:25 ~name:"lincomb_batch equals the affine fold"
    (R.arbitrary ~print:pp_lincomb_case lincomb_case_gen)
    (fun (p, q, combos) ->
      let pts = pool (p, q) in
      let combos = Array.of_list (List.map (List.map (fun (k, i) -> (k, pts.(i)))) combos) in
      let got = Curve.lincomb_batch params combos in
      Array.length got = Array.length combos
      && Array.for_all2 (fun terms r -> Curve.equal r (oracle_lincomb params terms)) combos got)

let t_lincomb_edges = R.test ~count:10 ~name:"lincomb_batch: empty, infinity, cancellation" point_arb
    (fun p ->
      let np = Curve.neg params p in
      let got =
        Curve.lincomb_batch params
          [| [];
             [ (Z.one, Curve.Infinity) ];
             [ (Z.zero, p) ];
             [ (Z.one, p); (Z.minus_one, p) ];
             [ (Z.one, p); (Z.one, np) ];
             [ (Z.one, p); (Z.one, p) ];
             [ (Z.minus_one, np) ];
             [ (Z.pred n61, p) ] |]
      in
      Array.for_all Curve.is_infinity (Array.sub got 0 5)
      && Curve.equal got.(5) (Curve.double params p)
      && Curve.equal got.(6) p
      && Curve.equal got.(7) np
      && Curve.lincomb_batch params [||] = [||])

let t_lincomb2 = R.test ~count:15 ~name:"lincomb_batch2 second stage combines first-stage results"
    (R.arbitrary
       ~print:(fun (case, second) ->
         pp_lincomb_case case ^ " then "
         ^ String.concat " | "
             (List.map
                (fun terms ->
                  String.concat " + " (List.map (fun (k, i) -> Printf.sprintf "%s·r%d" (Z.to_string k) i) terms))
                second))
       (Gen.pair lincomb_case_gen (Gen.list ~max_len:3 combo_gen)))
    (fun ((p, q, combos), second) ->
      let pts = pool (p, q) in
      let first = Array.of_list (List.map (List.map (fun (k, i) -> (k, pts.(i)))) combos) in
      let nfirst = Array.length first in
      (* Second-stage indices refer to first-stage results. *)
      let second =
        if nfirst = 0 then [||]
        else Array.of_list (List.map (List.map (fun (k, i) -> (k, i mod nfirst))) second)
      in
      let r1, r2 = Curve.lincomb_batch2 params first second in
      Array.for_all2 (fun a b -> Curve.equal a b) r1 (Curve.lincomb_batch params first)
      && Array.for_all2
           (fun terms r -> Curve.equal r (oracle_lincomb params (List.map (fun (k, i) -> (k, r1.(i))) terms)))
           second r2)

(* [Curve.mul] of every scalar on every point, and [Curve.lincomb_batch2]
   over [combos] (terms index [points]) with a second stage over the
   first's results, all against the oracle. *)
let agrees_with_oracle cp points scalars combos second =
  let pts = Array.of_list points in
  List.for_all
    (fun pt ->
      List.for_all
        (fun k -> Curve.equal (Curve.mul cp (Z.abs k) pt) (affine_mul cp (Z.abs k) pt))
        scalars)
    points
  &&
  let first = Array.of_list (List.map (List.map (fun (k, i) -> (k, pts.(i)))) combos) in
  let nfirst = Array.length first in
  let second = Array.of_list (List.map (List.map (fun (k, i) -> (k, i mod nfirst))) second) in
  let r1, r2 = Curve.lincomb_batch2 cp first second in
  Array.for_all2 (fun terms r -> Curve.equal r (oracle_lincomb cp terms)) first r1
  && Array.for_all2
       (fun terms r -> Curve.equal r (oracle_lincomb cp (List.map (fun (k, i) -> (k, r1.(i))) terms)))
       second r2

(* Fixed combinations over a pool whose index 0 is a point P of large
   order and whose last index is Infinity: P + P (the mixed addition's
   doubling branch), P − P (its vertical branch), terms at every pool
   index, and lone ±1 terms (results 6–8, whose Z stays 1; 8 also
   carries a zero term and an Infinity term). The second stage does the
   same to the first result, 2P, whose Z is not 1: the general
   addition's doubling and vertical branches; it then reads the lone
   ±1 results. *)
let structural_combos k npts =
  [ [ (Z.one, 0); (Z.one, 0) ];
    [ (Z.one, 0); (Z.minus_one, 0) ];
    [ (k, 0); (Z.neg k, 0) ];
    [ (k, 0); (k, 0) ];
    List.init npts (fun i -> (k, i));
    List.init npts (fun i -> (Z.of_int (i + 1), i));
    [ (Z.one, 0) ];
    [ (Z.minus_one, 0) ];
    [ (Z.zero, 0); (Z.minus_one, npts - 2); (k, npts - 1) ] ]

let structural_second k =
  [ [ (Z.one, 0); (Z.one, 0) ];
    [ (Z.one, 0); (Z.minus_one, 0) ];
    [ (k, 0); (Z.one, 3) ];
    [ (Z.one, 6); (Z.one, 7) ];
    [ (k, 6); (Z.minus_one, 8); (Z.one, 0) ];
    [ (Z.minus_one, 7) ] ]

(* On a group with n = q1·q2: an order-n point, its q1- and q2-projections
   (orders q2 and q1, whose ladders meet the doubling and vertical
   branches mid-chain once the scalar passes their order), the 2-torsion
   point (0, 0) and Infinity; scalars 0, 1, 2, n − 1, n, n + 1, random
   and signed. *)
let group_oracle_case g q1 q2 ~count ~name =
  R.test ~count ~name
    (R.arbitrary ~print:(fun s -> Printf.sprintf "%S" s) (Gen.bytes_size (Gen.return 16)))
    (fun seed ->
      let d = Sagma_crypto.Drbg.create ("oracle|" ^ seed) in
      let g = Lazy.force g and q1 = Lazy.force q1 and q2 = Lazy.force q2 in
      let cp = g.Pairing.curve and n = g.Pairing.n in
      let p = Pairing.random_order_n_point ~factors:[ q1; q2 ] g (Sagma_crypto.Drbg.rng d) in
      let points =
        [ p; affine_mul cp q1 p; affine_mul cp q2 p; Curve.Affine (Z.zero, Z.zero); Curve.Infinity ]
      in
      let r = Gen.bigint_below n d in
      let scalars =
        [ Z.zero; Z.one; Z.two; Z.pred n; n; Z.succ n; r; Z.neg r; Z.minus_one; Z.neg (Z.pred n) ]
      in
      let term = Gen.pair (Gen.oneofl scalars) (Gen.int_below (List.length points)) in
      let combos = structural_combos r (List.length points) @ Gen.list ~max_len:3 (Gen.list ~max_len:4 term) d in
      let second =
        structural_second r
        @ Gen.list ~max_len:3 (Gen.list ~max_len:3 (Gen.pair (Gen.oneofl scalars) (Gen.int_below 64))) d
      in
      agrees_with_oracle cp points scalars combos second)

let t_oracle_3limb =
  group_oracle_case ~count:6 ~name:"3-limb group: mul and lincomb_batch2 equal the affine oracle"
    (lazy group_comp) (lazy q1) (lazy q2)

(* The ~11-limb composite of [t_multilimb_prod], fixed: n from two
   128-bit primes. *)
let multilimb_factors =
  lazy
    (let rng = Sagma_crypto.Drbg.rng (Sagma_crypto.Drbg.create "multilimb-oracle") in
     let q1 = Z.random_prime rng ~bits:128 in
     (q1, Z.random_prime rng ~bits:128))

let multilimb_group = lazy (let q1, q2 = Lazy.force multilimb_factors in Pairing.make_group (Z.mul q1 q2))

let t_oracle_multilimb =
  group_oracle_case ~count:2 ~name:"multi-limb group: mul and lincomb_batch2 equal the affine oracle"
    multilimb_group (lazy (fst (Lazy.force multilimb_factors))) (lazy (snd (Lazy.force multilimb_factors)))

(* The paper's width: a fixed 1040-bit prime p ≡ 3 (mod 4), 40 limbs.
   Random points of E(F_p) and scalars of at most 64 bits keep each
   affine oracle ladder near 100 egcds. *)
let p1040 =
  Z.of_hex
    "dddc6ff3187440ba62ac915dd25c02ffe09ea3d9b244a5ed016c7cbc32c203f4e8de9ebd4dd352d828af08d520ecda111eb8af5b7e97451fe9c6779dfdc483339f21d09160631fff749ff04b8797f725275bfd35122251221d8ad99c0cb54d0be5a0aea1b7354a596a42127bb0786da9aa43411be242ebd5c50d52d0f651a30040d7"

let t_oracle_1040 = R.test ~count:1 ~name:"1040-bit field: mul and lincomb_batch2 equal the affine oracle"
    (R.arbitrary ~print:(fun s -> Printf.sprintf "%S" s) (Gen.bytes_size (Gen.return 16)))
    (fun seed ->
      let d = Sagma_crypto.Drbg.create ("oracle1040|" ^ seed) in
      let cp = Curve.make_params p1040 in
      let p = Curve.random_point cp (Sagma_crypto.Drbg.rng d) in
      let points = [ p; Curve.Affine (Z.zero, Z.zero); Curve.Infinity ] in
      let r = Gen.bigint_bits 64 d in
      let scalars = [ Z.zero; Z.one; Z.two; Z.pred (Z.shift_left Z.one 64); r; Z.neg r ] in
      let combos = structural_combos r (List.length points) @ [ [ (r, 0); (Z.neg Z.two, 1) ] ] in
      Z.num_bits p1040 = 1040
      && agrees_with_oracle cp points scalars combos (structural_second r @ [ [ (Z.two, 5); (r, 6) ] ]))

(* BGN's centred recoding: any scalar acts through its residue mod n. *)
let bgn_kp = lazy (Sagma_bgn.Bgn.keygen ~bits:64 (Sagma_crypto.Drbg.create "prop-pairing-bgn"))

let t_smul1_recoding = R.test ~count:15 ~name:"Bgn.smul1 depends only on k mod n"
    (R.arbitrary
       ~print:(fun (k, m) -> Printf.sprintf "(%s, %d)" (Z.to_string k) m)
       (Gen.pair (Gen.oneof [ Gen.bigint_signed ~bits:80 (); signed_scalar_gen ]) (Gen.int_below 1000)))
    (fun (k, m) ->
      let module Bgn = Sagma_bgn.Bgn in
      let kp = Lazy.force bgn_kp in
      let pk = kp.Bgn.pk in
      let n = Bgn.n pk in
      let c = Bgn.enc1_int pk (Sagma_crypto.Drbg.create (Printf.sprintf "smul1|%d" m)) m in
      Curve.equal (Bgn.smul1 pk k c) (Bgn.smul1 pk (Z.erem k n) c)
      && Curve.equal (Bgn.smul1 pk (Z.pred n) c) (Bgn.neg1 pk c)
      && Curve.equal (Bgn.smul1 pk (Z.shift_right n 1) c)
           (Curve.mul pk.Bgn.group.Pairing.curve (Z.shift_right n 1) c))

let t_composite_prod = R.test ~count:4 ~name:"composite order: fast equals affine on projected points"
    (R.arbitrary
       ~print:(fun s -> Printf.sprintf "%S" s)
       (Gen.bytes_size (Gen.return 16)))
    (fun seed ->
      let d = Sagma_crypto.Drbg.create ("compfast|" ^ seed) in
      let rng = Sagma_crypto.Drbg.rng d in
      let cp = group_comp.Pairing.curve in
      let p = Pairing.random_order_n_point group_comp rng in
      let q = Pairing.random_order_n_point group_comp rng in
      (* Small-order points make the Miller ladder hit the mid-loop
         vertical/infinity edge cases; both paths must agree there. *)
      let p1 = Curve.mul cp q1 p in
      let q2pt = Curve.mul cp q2 q in
      Fp2.equal (Pairing.pairing group_comp p1 q) (Pairing.pairing_affine group_comp p1 q)
      && Fp2.equal
           (Pairing.pairing group_comp p1 q2pt)
           (Pairing.pairing_affine group_comp p1 q2pt)
      && Fp2.equal
           (Pairing.pairing group_comp q2pt p1)
           (Pairing.pairing_affine group_comp q2pt p1))

(* Every group above has a p of 3 limbs. This one draws n = q1·q2 from
   two 128-bit primes, so p spans about 11 limbs and the kernel's column
   carries and the precompute's batched inversion run multi-limb. The
   pairs mix order-n points, the q1-projected point of order q2, both
   infinities and the 2-torsion point (0, 0), whose ladder alternates
   the vertical doubling (y = 0) with the addition from T = O. *)
let t_multilimb_prod = R.test ~count:3 ~name:"multi-limb composite: pairing_prod equals affine product"
    (R.arbitrary
       ~print:(fun s -> Printf.sprintf "%S" s)
       (Gen.bytes_size (Gen.return 16)))
    (fun seed ->
      let d = Sagma_crypto.Drbg.create ("multilimb|" ^ seed) in
      let rng = Sagma_crypto.Drbg.rng d in
      let q1 = Z.random_prime rng ~bits:128 and q2 = Z.random_prime rng ~bits:128 in
      let g = Pairing.make_group (Z.mul q1 q2) in
      let cp = g.Pairing.curve in
      let pt () = Pairing.random_order_n_point ~factors:[ q1; q2 ] g rng in
      let p = pt () and q = pt () and r = pt () in
      let small = Curve.mul cp q1 p and two = Curve.Affine (Z.zero, Z.zero) in
      let pairs =
        [ (p, q); (small, r); (Curve.Infinity, q); (r, small); (q, Curve.Infinity); (small, small);
          (two, q); (p, two) ]
      in
      let prod = Pairing.pairing_prod g (List.map (fun (a, b) -> (Pairing.precompute g a, b)) pairs) in
      let expected =
        List.fold_left
          (fun acc (a, b) -> Fp2.mul ~p:g.Pairing.p acc (Pairing.pairing_affine g a b))
          Fp2.one pairs
      in
      Z.num_bits g.Pairing.p > 250
      && Fp2.equal prod expected
      && not (Fp2.equal prod Fp2.one))

(* --- G_T on Montgomery residues ------------------------------------------------- *)

(* [Pairing.Gt.pow] against [Fp2.pow] on [Z]. The group's n = 2^89 − 1
   lets exponents run past 64 bits, where [Gt.pow] switches to its
   4-bit window; k mod 2^40 keeps the binary branch covered. Pairing
   values lie in μ_n, so the unreduced oracle power equals [Gt.pow]'s
   power of k mod n. [Gt.key] is injective, so equal keys are equal
   elements. *)
let group89 = lazy (Pairing.make_group (Z.pred (Z.shift_left Z.one 89)))

let t_gt_pow = R.test ~count:6 ~name:"Gt.pow equals Fp2.pow on Z, binary and windowed"
    (R.arbitrary
       ~print:(fun (k, s) -> Printf.sprintf "(%s, %S)" (Z.to_string k) s)
       (Gen.pair (Gen.bigint_below (Z.shift_left Z.one 130)) (Gen.bytes_size (Gen.return 16))))
    (fun (k, seed) ->
      let g = Lazy.force group89 in
      let rng = Sagma_crypto.Drbg.rng (Sagma_crypto.Drbg.create ("gt-pow|" ^ seed)) in
      let x = Pairing.pairing g (Pairing.random_order_n_point g rng) (Pairing.random_order_n_point g rng) in
      let gx = Pairing.Gt.of_fp2 g x in
      let fast k = Pairing.Gt.key (Pairing.Gt.pow g gx k) in
      let oracle k = Pairing.Gt.key (Pairing.Gt.of_fp2 g (Fp2.pow ~p:g.Pairing.p x k)) in
      let small = Z.erem k (Z.shift_left Z.one 40) in
      List.for_all (fun k -> fast k = oracle k) [ k; Z.succ k; small; Z.zero; Z.one ]
      && fast (Z.succ k) = Pairing.Gt.key (Pairing.Gt.mul g (Pairing.Gt.pow g gx k) gx))

(* --- composite order (BGN's setting) ----------------------------------------- *)

let t_composite = R.test ~count:4 ~name:"composite-order subgroup projection"
    (R.arbitrary
       ~print:(fun s -> Printf.sprintf "%S" s)
       (Gen.bytes_size (Gen.return 16)))
    (fun seed ->
      let d = Sagma_crypto.Drbg.create ("comp|" ^ seed) in
      let rng = Sagma_crypto.Drbg.rng d in
      let cp = group_comp.Pairing.curve in
      let p = Pairing.random_order_n_point group_comp rng in
      let q = Pairing.random_order_n_point group_comp rng in
      (* Multiplying by q1 projects onto the order-q2 subgroup: the
         pairing must then have order dividing q2 — the trapdoor BGN
         decryption uses. *)
      let p1 = Curve.mul cp q1 p in
      let g = Pairing.pairing group_comp p1 q in
      Fp2.equal (Fp2.pow ~p:group_comp.Pairing.p g q2) Fp2.one)

let () =
  R.run ~suite:"test_prop_pairing"
    [ t_closure; t_add_comm; t_add_assoc; t_identity; t_double; t_mul_distrib; t_mul_assoc;
      t_mul_small; t_order; t_bilinear; t_additive; t_symmetric; t_scalar_slides;
      t_nondegenerate; t_infinity; t_target_order; t_new_vs_affine; t_precomp_reuse;
      t_prod_product; t_prod_infinity; t_prod_additive; t_lincomb; t_lincomb_edges; t_lincomb2;
      t_oracle_3limb; t_oracle_multilimb; t_oracle_1040; t_smul1_recoding;
      t_composite_prod; t_multilimb_prod;
      t_gt_pow; t_composite ]
