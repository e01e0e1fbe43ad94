(* Tests for the pairing substrate: F_p² field axioms, curve group laws,
   subgroup structure and (the critical one) bilinearity of the modified
   Tate pairing. *)

module Z = Sagma_bigint.Bigint
module Fp2 = Sagma_pairing.Fp2
module Curve = Sagma_pairing.Curve
module Pairing = Sagma_pairing.Pairing
module Drbg = Sagma_crypto.Drbg

let drbg = Drbg.create "pairing-tests"
let rng = Drbg.rng drbg

(* A small prime group order for fast tests (pairing subgroup of prime
   order keeps the subtleties while staying quick). *)
let n61 = Z.of_string "2305843009213693951" (* Mersenne prime 2^61 - 1 *)
let group = Pairing.make_group n61

(* A composite order n = q1*q2 as BGN uses. *)
let q1 = Z.of_string "1073741827"
let q2 = Z.of_string "1073741831"
let n_comp = Z.mul q1 q2
let group_comp = Pairing.make_group n_comp

let p = group.Pairing.p

let fp2_gen =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    QCheck.Gen.(pair (int_range 0 1000000) (int_range 0 1000000))

let lift (a, b) = Fp2.make ~p (Z.of_int a) (Z.of_int b)

let qprop name count gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

(* --- group construction ------------------------------------------------- *)

let test_group_params () =
  Alcotest.(check bool) "p prime" true (Z.is_probable_prime rng p);
  Alcotest.(check int) "p mod 4 = 3" 3 (Z.to_int_exn (Z.erem p (Z.of_int 4)));
  Alcotest.(check string) "p = l*n - 1" (Z.to_string (Z.pred (Z.mul group.Pairing.l group.Pairing.n)))
    (Z.to_string p);
  Alcotest.(check string) "final exp exact" "0"
    (Z.to_string (Z.erem (Z.pred (Z.mul p p)) group.Pairing.n))

(* --- Fp2 ---------------------------------------------------------------- *)

let fp2_props =
  [ qprop "fp2 mul commutative" 200 QCheck.(pair fp2_gen fp2_gen)
      (fun (a, b) ->
        let a = lift a and b = lift b in
        Fp2.equal (Fp2.mul ~p a b) (Fp2.mul ~p b a));
    qprop "fp2 mul associative" 200 QCheck.(triple fp2_gen fp2_gen fp2_gen)
      (fun (a, b, c) ->
        let a = lift a and b = lift b and c = lift c in
        Fp2.equal (Fp2.mul ~p (Fp2.mul ~p a b) c) (Fp2.mul ~p a (Fp2.mul ~p b c)));
    qprop "fp2 sqr = mul self" 200 fp2_gen
      (fun a ->
        let a = lift a in
        Fp2.equal (Fp2.sqr ~p a) (Fp2.mul ~p a a));
  ]

let test_fp2_pow () =
  let a = Fp2.make ~p (Z.of_int 3) (Z.of_int 7) in
  (* pow by small exponents agrees with iterated multiplication *)
  let rec naive k = if k = 0 then Fp2.one else Fp2.mul ~p a (naive (k - 1)) in
  for k = 0 to 12 do
    Alcotest.(check bool) (Printf.sprintf "pow %d" k) true
      (Fp2.equal (Fp2.pow ~p a (Z.of_int k)) (naive k))
  done

let test_fp2_fermat () =
  (* a^(p²−1) = 1 for a ≠ 0. *)
  let a = Fp2.make ~p (Z.of_int 12345) (Z.of_int 67890) in
  Alcotest.(check bool) "unit group order" true
    (Fp2.is_one (Fp2.pow ~p a (Z.pred (Z.mul p p))))

(* --- curve -------------------------------------------------------------- *)

let cp = group.Pairing.curve

let random_pt () = Curve.random_point cp rng

let test_curve_membership () =
  for _ = 1 to 10 do
    let pt = random_pt () in
    Alcotest.(check bool) "on curve" true (Curve.is_on_curve cp pt)
  done

let test_curve_group_laws () =
  let a = random_pt () and b = random_pt () and c = random_pt () in
  Alcotest.(check bool) "commutative" true
    (Curve.equal (Curve.add cp a b) (Curve.add cp b a));
  Alcotest.(check bool) "associative" true
    (Curve.equal (Curve.add cp (Curve.add cp a b) c) (Curve.add cp a (Curve.add cp b c)));
  Alcotest.(check bool) "identity" true (Curve.equal a (Curve.add cp a Curve.Infinity));
  Alcotest.(check bool) "inverse" true
    (Curve.is_infinity (Curve.add cp a (Curve.neg cp a)));
  Alcotest.(check bool) "double = add self" true
    (Curve.equal (Curve.double cp a) (Curve.add cp a a))

let test_curve_scalar_mul () =
  let a = random_pt () in
  (* k*P via double-and-add matches repeated addition. *)
  let rec rep k = if k = 0 then Curve.Infinity else Curve.add cp a (rep (k - 1)) in
  for k = 0 to 12 do
    Alcotest.(check bool) (Printf.sprintf "mul %d" k) true
      (Curve.equal (Curve.mul_int cp k a) (rep k))
  done;
  (* Distribution over scalar addition. *)
  let k1 = Z.of_int 123456 and k2 = Z.of_int 654321 in
  Alcotest.(check bool) "mul distributes" true
    (Curve.equal
       (Curve.mul cp (Z.add k1 k2) a)
       (Curve.add cp (Curve.mul cp k1 a) (Curve.mul cp k2 a)))

let test_curve_order () =
  (* #E(F_p) = p + 1: every point is killed by p + 1. *)
  let a = random_pt () in
  Alcotest.(check bool) "(p+1)P = O" true
    (Curve.is_infinity (Curve.mul cp (Z.succ p) a))

let test_subgroup_order () =
  let g = Pairing.random_order_n_point group rng in
  Alcotest.(check bool) "on curve" true (Curve.is_on_curve cp g);
  Alcotest.(check bool) "nontrivial" false (Curve.is_infinity g);
  Alcotest.(check bool) "order divides n" true
    (Curve.is_infinity (Curve.mul cp group.Pairing.n g))

(* --- pairing ------------------------------------------------------------ *)

let test_pairing_nondegenerate () =
  let g = Pairing.random_order_n_point group rng in
  let e = Pairing.pairing group g g in
  Alcotest.(check bool) "e(g,g) <> 1" false (Fp2.is_one e);
  Alcotest.(check bool) "e(g,g) in mu_n" true
    (Fp2.is_one (Fp2.pow ~p e group.Pairing.n))

let test_pairing_bilinear () =
  let g = Pairing.random_order_n_point group rng in
  let h = Pairing.random_order_n_point group rng in
  let a = Z.of_int 123457 and b = Z.of_int 987651 in
  let lhs = Pairing.pairing group (Curve.mul cp a g) (Curve.mul cp b h) in
  let rhs = Fp2.pow ~p (Pairing.pairing group g h) (Z.mul a b) in
  Alcotest.(check bool) "e(aP,bQ) = e(P,Q)^ab" true (Fp2.equal lhs rhs);
  (* Additivity in the first argument. *)
  let lhs2 = Pairing.pairing group (Curve.add cp g h) g in
  let rhs2 = Fp2.mul ~p (Pairing.pairing group g g) (Pairing.pairing group h g) in
  Alcotest.(check bool) "e(P+Q,R) = e(P,R)e(Q,R)" true (Fp2.equal lhs2 rhs2)

let test_pairing_identity () =
  let g = Pairing.random_order_n_point group rng in
  Alcotest.(check bool) "e(O,g) = 1" true
    (Fp2.is_one (Pairing.pairing group Curve.Infinity g));
  Alcotest.(check bool) "e(g,O) = 1" true
    (Fp2.is_one (Pairing.pairing group g Curve.Infinity))

let test_pairing_composite_order () =
  (* The BGN-relevant structure: in a group of order n = q1*q2, pairing a
     q1-order point with a q2-order point gives 1 after raising to q1. *)
  let cpc = group_comp.Pairing.curve in
  let pc = group_comp.Pairing.p in
  let g = Pairing.random_order_n_point group_comp rng in
  let h = Curve.mul cpc q2 g (* order q1 *) in
  let e_gg = Pairing.pairing group_comp g g in
  let e_gh = Pairing.pairing group_comp g h in
  Alcotest.(check bool) "e(g,h) = e(g,g)^q2" true
    (Fp2.equal e_gh (Fp2.pow ~p:pc e_gg q2));
  Alcotest.(check bool) "e(g,h)^q1 = 1" true
    (Fp2.is_one (Fp2.pow ~p:pc e_gh q1));
  Alcotest.(check bool) "e(g,g)^q1 <> 1" false
    (Fp2.is_one (Fp2.pow ~p:pc e_gg q1))

let test_pairing_bilinear_composite () =
  let cpc = group_comp.Pairing.curve in
  let pc = group_comp.Pairing.p in
  let g = Pairing.random_order_n_point group_comp rng in
  let a = Z.of_int 31337 and b = Z.of_int 271828 in
  let lhs = Pairing.pairing group_comp (Curve.mul cpc a g) (Curve.mul cpc b g) in
  let rhs = Fp2.pow ~p:pc (Pairing.pairing group_comp g g) (Z.mul a b) in
  Alcotest.(check bool) "bilinearity (composite)" true (Fp2.equal lhs rhs)

(* --- sieved group search --------------------------------------------------- *)

module Bgn = Sagma_bgn.Bgn

(* The unsieved search: every candidate ℓ = 4, 8, … straight to the
   primality test. *)
let plain_group_search n =
  let rec find l =
    let p = Z.pred (Z.mul (Z.of_int l) n) in
    if Z.is_probable_prime rng p then (l, p) else find (l + 4)
  in
  find 4

let key_n bits = Bgn.n (Bgn.keygen ~bits (Drbg.create (Printf.sprintf "sieve-%d" bits))).Bgn.pk

let test_sieve_matches_plain_search () =
  (* Tiny odd n put sieve primes at and above p (n = 3 gives p = 11, a
     sieve prime itself); the key sizes cover the sizes tests run at. *)
  let ns = List.map Z.of_int [ 3; 5; 7; 9; 15; 21; 33; 35; 1001 ] @ List.map key_n [ 16; 64; 256 ] in
  List.iter
    (fun n ->
      let g = Pairing.make_group n in
      let l, p = plain_group_search n in
      let name = Z.to_string n in
      Alcotest.(check int) (name ^ ": l") l (Z.to_int_exn g.Pairing.l);
      Alcotest.(check string) (name ^ ": p") (Z.to_string p) (Z.to_string g.Pairing.p))
    ns

(* --- fixed-base combs ------------------------------------------------------- *)

let comb_keys = List.map (fun bits -> Bgn.keygen ~bits (Drbg.create (Printf.sprintf "comb-%d" bits))) [ 16; 64; 256 ]

let lincomb cp terms = (Curve.lincomb_batch cp [| terms |]).(0)

(* Every comb sum against the Straus combination, for edge and random
   scalars. At 16 bits h's order q1 has 8 bits, far below the comb's
   scalar range. *)
let test_comb_matches_lincomb () =
  List.iter
    (fun (kp : Bgn.keypair) ->
      let pk = kp.Bgn.pk in
      let cp = pk.Bgn.group.Pairing.curve and n = Bgn.n pk in
      let comb = Curve.make_comb cp ~bits:(Z.num_bits n) [| pk.Bgn.g; pk.Bgn.h |] in
      let a = Pairing.random_order_n_point pk.Bgn.group rng in
      let ms = [ Z.zero; Z.one; Z.minus_one; Z.pred n; Z.random_below rng n ] in
      let rs = [ Z.zero; Z.one; Z.pred n; Z.random_below rng n ] in
      List.iter
        (fun m ->
          List.iter
            (fun r ->
              let what = Printf.sprintf "%d bits, m = %s, r = %s" (Z.num_bits n) (Z.to_string m) (Z.to_string r) in
              Alcotest.(check bool) ("m·g + r·h: " ^ what) true
                (Curve.equal
                   (Curve.comb_lincomb cp comb [| Z.erem m n; r |])
                   (lincomb cp [ (m, pk.Bgn.g); (r, pk.Bgn.h) ]));
              Alcotest.(check bool) ("a + r·h: " ^ what) true
                (Curve.equal
                   (Curve.comb_lincomb ~plus:a cp comb [| Z.zero; r |])
                   (lincomb cp [ (Z.one, a); (r, pk.Bgn.h) ])))
            rs)
        ms)
    comb_keys

(* enc1 and rerandomize1 draw r below n from the DRBG; a twin DRBG
   replays that r for the reference combination. *)
let test_enc1_matches_lincomb () =
  List.iter
    (fun (kp : Bgn.keypair) ->
      let pk = kp.Bgn.pk in
      let cp = pk.Bgn.group.Pairing.curve and n = Bgn.n pk in
      let seed = Printf.sprintf "enc1-%d" (Z.num_bits n) in
      let d = Drbg.create seed and twin = Drbg.create seed in
      let next_r () = Z.random_below (Drbg.rng twin) n in
      let a = Pairing.random_order_n_point pk.Bgn.group rng in
      List.iter
        (fun m ->
          let c = Bgn.enc1 pk d m in
          let r = next_r () in
          Alcotest.(check bool) ("enc1 " ^ Z.to_string m) true
            (Curve.equal c (lincomb cp [ (Z.erem m n, pk.Bgn.g); (r, pk.Bgn.h) ]));
          let c' = Bgn.rerandomize1 pk d a in
          let r' = next_r () in
          Alcotest.(check bool) "rerandomize1" true
            (Curve.equal c' (lincomb cp [ (Z.one, a); (r', pk.Bgn.h) ])))
        [ Z.zero; Z.one; Z.minus_one; Z.pred n; Z.random_below rng n ])
    comb_keys

(* Two domains make the first encryptions under a fresh key at once:
   both may build the tables, one copy lands, and every ciphertext
   decrypts. *)
let test_comb_race () =
  let kp = Bgn.keygen ~bits:64 (Drbg.create "comb-race") in
  let pk = kp.Bgn.pk in
  Alcotest.(check bool) "a fresh key has no tables" true (Option.is_none (Atomic.get pk.Bgn.comb));
  let encrypt seed ms = Domain.spawn (fun () -> List.map (fun m -> (m, Bgn.enc1_int pk (Drbg.create seed) m)) ms) in
  let d1 = encrypt "race-1" [ 3; 5; 7 ] and d2 = encrypt "race-2" [ 11; 13; 17 ] in
  let cts = Domain.join d1 @ Domain.join d2 in
  Alcotest.(check bool) "the slot is filled" true (Option.is_some (Atomic.get pk.Bgn.comb));
  let table = Bgn.make_dec1_table kp ~max:32 in
  List.iter
    (fun (m, c) -> Alcotest.(check (option int)) (Printf.sprintf "dec1 %d" m) (Some m) (Bgn.dec1 kp table ~max:32 c))
    cts

let () =
  Alcotest.run "pairing"
    [ ("group",
        [ Alcotest.test_case "parameters" `Quick test_group_params;
          Alcotest.test_case "sieved search = plain search" `Quick test_sieve_matches_plain_search ] );
      ("comb",
        [ Alcotest.test_case "comb = lincomb" `Quick test_comb_matches_lincomb;
          Alcotest.test_case "enc1/rerandomize1 = lincomb" `Quick test_enc1_matches_lincomb;
          Alcotest.test_case "two domains, fresh key" `Quick test_comb_race ] );
      ( "fp2",
        [ Alcotest.test_case "pow small" `Quick test_fp2_pow;
          Alcotest.test_case "fermat" `Quick test_fp2_fermat ]
        @ fp2_props );
      ( "curve",
        [ Alcotest.test_case "membership" `Quick test_curve_membership;
          Alcotest.test_case "group laws" `Quick test_curve_group_laws;
          Alcotest.test_case "scalar mul" `Quick test_curve_scalar_mul;
          Alcotest.test_case "curve order p+1" `Quick test_curve_order;
          Alcotest.test_case "subgroup order n" `Quick test_subgroup_order ] );
      ( "pairing",
        [ Alcotest.test_case "non-degenerate" `Quick test_pairing_nondegenerate;
          Alcotest.test_case "bilinear" `Quick test_pairing_bilinear;
          Alcotest.test_case "identity" `Quick test_pairing_identity;
          Alcotest.test_case "composite order structure" `Quick test_pairing_composite_order;
          Alcotest.test_case "bilinear composite" `Quick test_pairing_bilinear_composite ] );
    ]
