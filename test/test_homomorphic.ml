(* Tests for the homomorphic encryption substrates: BGN (both ciphertext
   levels, the single multiplication, BSGS decryption, CRT channels) and
   Paillier. *)

module Z = Sagma_bigint.Bigint
module Drbg = Sagma_crypto.Drbg
module Bgn = Sagma_bgn.Bgn
module Dlog = Sagma_bgn.Dlog
module Crt = Sagma_bgn.Crt_channels
module Paillier = Sagma_paillier.Paillier
module Curve = Sagma_pairing.Curve
module Fp2 = Sagma_pairing.Fp2
module Pairing = Sagma_pairing.Pairing

let drbg = Drbg.create "homomorphic-tests"

(* Small key so the whole suite stays fast; correctness is size-independent. *)
let kp = Bgn.keygen ~bits:64 drbg
let pk = kp.Bgn.pk

(* An about 256-bit key, for the cases that also run at a multi-limb size. *)
let kp256 = lazy (Bgn.keygen ~bits:256 (Drbg.create "seams-256"))

let z = Z.of_int

(* --- dlog --------------------------------------------------------------- *)

let test_dlog_int_group () =
  (* BSGS over plain modular integers as a sanity oracle. *)
  let p = z 1000003 in
  let ops =
    { Dlog.mul = (fun a b -> Z.mulm a b p);
      inv = (fun a -> Z.invm_exn a p);
      one = Z.one;
      serialize = Z.to_string }
  in
  let base = z 2 in
  let table = Dlog.make ops base ~max:100000 in
  List.iter
    (fun x ->
      let target = Z.powm base (z x) p in
      Alcotest.(check (option int)) (Printf.sprintf "dlog %d" x) (Some x)
        (Dlog.solve table target ~max:100000))
    [ 0; 1; 2; 77; 1000; 99999; 100000 ];
  (* Out-of-range exponent must not be found. *)
  let target = Z.powm base (z 100001) p in
  Alcotest.(check (option int)) "out of range" None (Dlog.solve table target ~max:100000)

(* --- BGN level 1 -------------------------------------------------------- *)

let test_bgn_enc_dec_level1 () =
  let table = Bgn.make_dec1_table kp ~max:1000 in
  List.iter
    (fun m ->
      let c = Bgn.enc1_int pk drbg m in
      Alcotest.(check (option int)) (Printf.sprintf "dec %d" m) (Some m)
        (Bgn.dec1 kp table ~max:1000 c))
    [ 0; 1; 2; 42; 999; 1000 ]

let test_bgn_additive () =
  let table = Bgn.make_dec1_table kp ~max:200 in
  let c1 = Bgn.enc1_int pk drbg 57 and c2 = Bgn.enc1_int pk drbg 99 in
  Alcotest.(check (option int)) "sum" (Some 156)
    (Bgn.dec1 kp table ~max:200 (Bgn.add1 pk c1 c2));
  Alcotest.(check (option int)) "scalar" (Some 171)
    (Bgn.dec1 kp table ~max:200 (Bgn.smul1 pk (z 3) c1));
  Alcotest.(check (option int)) "zero" (Some 0)
    (Bgn.dec1 kp table ~max:200 Bgn.zero1)

let test_bgn_semantic_randomness () =
  let c1 = Bgn.enc1_int pk drbg 5 and c2 = Bgn.enc1_int pk drbg 5 in
  Alcotest.(check bool) "fresh randomness" false (Curve.equal c1 c2);
  let r = Bgn.rerandomize1 pk drbg c1 in
  Alcotest.(check bool) "rerandomized differs" false (Curve.equal c1 r);
  Alcotest.(check (option int)) "rerandomized decrypts" (Some 5)
    (Bgn.dec1 kp (Bgn.make_dec1_table kp ~max:10) ~max:10 r)

(* --- BGN level 2 / multiplication --------------------------------------- *)

let test_bgn_multiplication () =
  let table2 = Bgn.make_dec2_table kp ~max:10000 in
  List.iter
    (fun (a, b) ->
      let ca = Bgn.enc1_int pk drbg a and cb = Bgn.enc1_int pk drbg b in
      let prod = Bgn.mul pk ca cb in
      Alcotest.(check (option int)) (Printf.sprintf "%d*%d" a b) (Some (a * b))
        (Bgn.dec2 kp table2 ~max:10000 prod))
    [ (0, 5); (1, 1); (3, 7); (99, 101) ]

let test_bgn_level2_additive () =
  let table2 = Bgn.make_dec2_table kp ~max:1000 in
  let ca = Bgn.enc1_int pk drbg 6 and cb = Bgn.enc1_int pk drbg 7 in
  let cc = Bgn.enc1_int pk drbg 10 and cd = Bgn.enc1_int pk drbg 3 in
  (* 6*7 + 10*3 = 72 *)
  let s = Bgn.add2 pk (Bgn.mul pk ca cb) (Bgn.mul pk cc cd) in
  Alcotest.(check (option int)) "sum of products" (Some 72)
    (Bgn.dec2 kp table2 ~max:1000 s);
  Alcotest.(check (option int)) "enc2 direct" (Some 55)
    (Bgn.dec2 kp table2 ~max:1000 (Bgn.enc2 pk drbg (z 55)))

(* [enc2] against the closed form ê(g,g)^m · ê(g,h)^r, both pairings from
   the affine reference and r drawn from a second DRBG on the same seed.
   A sequence of encryptions and one trailing draw also pin how much of
   the DRBG stream each encryption consumes. *)
let check_enc2_oracle kp =
  let pk = kp.Bgn.pk in
  let group = pk.Bgn.group and n = Bgn.n pk in
  let p = group.Pairing.p in
  let e = Pairing.pairing_affine group pk.Bgn.g pk.Bgn.g in
  let e' = Pairing.pairing_affine group pk.Bgn.g pk.Bgn.h in
  let seed = Printf.sprintf "enc2-oracle|%d" (Z.num_bits n) in
  let d = Drbg.create seed and d' = Drbg.create seed in
  List.iter
    (fun m ->
      let r = Z.random_below (Drbg.rng d') n in
      let expected = Fp2.mul ~p (Fp2.pow ~p e (Z.erem m n)) (Fp2.pow ~p e' r) in
      Alcotest.(check bool) (Printf.sprintf "enc2 %s" (Z.to_string m)) true
        (Fp2.equal (Bgn.enc2 pk d m) expected))
    [ Z.zero; Z.one; z 55; Z.pred n; Z.add n (z 3) ];
  Alcotest.(check string) "same DRBG stream consumed" (Drbg.rng d' 16) (Drbg.rng d 16)

let test_enc2_oracle_64 () = check_enc2_oracle kp
let test_enc2_oracle_256 () = check_enc2_oracle (Lazy.force kp256)

let test_bgn_mul_many () =
  let table2 = Bgn.make_dec2_table kp ~max:1000 in
  (* The batched product-of-pairings path must agree with folding mul
     results through add2: 6*7 + 10*3 + 4*5 = 92. *)
  let pairs =
    List.map
      (fun (a, b) -> (Bgn.enc1_int pk drbg a, Bgn.enc1_int pk drbg b))
      [ (6, 7); (10, 3); (4, 5) ]
  in
  Alcotest.(check (option int)) "mul_many sum of products" (Some 92)
    (Bgn.dec2 kp table2 ~max:1000 (Bgn.mul_many pk pairs));
  let folded =
    List.fold_left (fun acc (a, b) -> Bgn.add2 pk acc (Bgn.mul pk a b)) Bgn.zero2 pairs
  in
  Alcotest.(check (option int)) "matches termwise fold" (Some 92)
    (Bgn.dec2 kp table2 ~max:1000 folded);
  Alcotest.(check (option int)) "empty batch is zero2" (Some 0)
    (Bgn.dec2 kp table2 ~max:1000 (Bgn.mul_many pk []));
  (* Precomputed left arguments: one cache per distinct ciphertext,
     reused across two different batches. *)
  let ca = Bgn.enc1_int pk drbg 11 and cb = Bgn.enc1_int pk drbg 2 in
  let pre = Bgn.precompute1 pk ca in
  Alcotest.(check (option int)) "mul_many_pre" (Some 22)
    (Bgn.dec2 kp table2 ~max:1000 (Bgn.mul_many_pre pk [ (pre, cb) ]));
  Alcotest.(check (option int)) "precomp reused" (Some 33)
    (Bgn.dec2 kp table2 ~max:1000 (Bgn.mul_many_pre pk [ (pre, Bgn.enc1_int pk drbg 3) ]))

let test_bgn_mul_bilinearity_of_blinding () =
  (* The blinding term must vanish: Enc(m1)·Enc(m2) decrypts to m1·m2
     regardless of the randomness used. Run several times. *)
  let table2 = Bgn.make_dec2_table kp ~max:100 in
  for _ = 1 to 5 do
    let ca = Bgn.enc1_int pk drbg 8 and cb = Bgn.enc1_int pk drbg 9 in
    Alcotest.(check (option int)) "product" (Some 72)
      (Bgn.dec2 kp table2 ~max:100 (Bgn.mul pk ca cb))
  done;
  (* It vanishes because the blinding point h has order q1: h ≠ O and
     q1·h = O, whatever the key. *)
  List.iter
    (fun seed ->
      let kp = Bgn.keygen ~bits:64 (Drbg.create seed) in
      let h = kp.Bgn.pk.Bgn.h and cp = kp.Bgn.pk.Bgn.group.Pairing.curve in
      Alcotest.(check bool) (seed ^ ": h <> O") false (Curve.is_infinity h);
      Alcotest.(check bool) (seed ^ ": q1·h = O") true
        (Curve.is_infinity (Curve.mul cp kp.Bgn.sk.Bgn.q1 h)))
    [ "blinding-1"; "blinding-2"; "blinding-3"; "blinding-4" ]

let test_bgn_table_reuse () =
  let table = Bgn.make_dec1_table kp ~max:500 in
  for m = 0 to 20 do
    Alcotest.(check (option int)) "reuse" (Some (m * 20))
      (Bgn.dec1 kp table ~max:500 (Bgn.enc1_int pk drbg (m * 20)))
  done

(* --- decryption seams ---------------------------------------------------- *)

(* Plaintexts where the baby-step table and the giant-step walk meet: 0,
   1, either side of the stride (Dlog's ⌊√(max + 1)⌋ + 1 baby steps), its
   double, and both ends of the range. max + 1 must not decrypt. Any
   table solves any bound, so each value also goes through tables built
   for 4·max and for max/4. *)
let check_decryption_seams kp ~max =
  let pk = kp.Bgn.pk in
  let drbg = Drbg.create (Printf.sprintf "seams|%d" (Z.num_bits (Bgn.n pk))) in
  let stride = int_of_float (sqrt (float_of_int (max + 1))) + 1 in
  let tables =
    List.map
      (fun b ->
        let label = if b = max then "" else Printf.sprintf " (table for %d)" b in
        (label, Bgn.make_dec1_table kp ~max:b, Bgn.make_dec2_table kp ~max:b))
      [ max; 4 * max; max / 4 ]
  in
  let check m expected =
    let c1 = Bgn.enc1_int pk drbg m and c2 = Bgn.enc2 pk drbg (z m) in
    List.iter
      (fun (label, t1, t2) ->
        Alcotest.(check (option int)) (Printf.sprintf "dec1 %d%s" m label) expected
          (Bgn.dec1 kp t1 ~max c1);
        Alcotest.(check (option int)) (Printf.sprintf "dec2 %d%s" m label) expected
          (Bgn.dec2 kp t2 ~max c2))
      tables
  in
  List.iter (fun m -> check m (Some m)) [ 0; 1; stride - 1; stride; stride + 1; 2 * stride; max - 1; max ];
  check (max + 1) None;
  (* A level-2 value that came through the pairing, at the seam. *)
  let _, _, t2 = List.hd tables in
  Alcotest.(check (option int)) "dec2 of a product" (Some stride)
    (Bgn.dec2 kp t2 ~max (Bgn.mul pk (Bgn.enc1_int pk drbg stride) (Bgn.enc1_int pk drbg 1)))

let test_decryption_seams_64 () = check_decryption_seams kp ~max:1000

let test_decryption_seams_256 () =
  check_decryption_seams (Lazy.force kp256) ~max:1000

(* --- CRT channels ------------------------------------------------------- *)

let test_crt_choose () =
  let ch = Crt.choose ~channel_bits:8 ~capacity_bits:40 in
  Alcotest.(check bool) "enough capacity" true (Crt.capacity_bits ch >= 40);
  Alcotest.(check bool) "several channels" true (Crt.channels ch >= 5)

let test_crt_roundtrip () =
  let ch = Crt.choose ~channel_bits:10 ~capacity_bits:48 in
  List.iter
    (fun v ->
      let v = Z.of_string v in
      let enc = Crt.encode ch v in
      Alcotest.(check string) ("roundtrip " ^ Z.to_string v) (Z.to_string v)
        (Z.to_string (Crt.decode ch enc)))
    [ "0"; "1"; "123456789"; "281474976710655" (* 2^48 - 1 *) ]

let test_crt_additive () =
  (* Channel-wise sums decode to the true sum (values may exceed moduli). *)
  let ch = Crt.choose ~channel_bits:8 ~capacity_bits:32 in
  let vals = [ 123456; 789012; 555555; 1000000 ] in
  let sums = Array.make (Crt.channels ch) 0 in
  List.iter
    (fun v ->
      let e = Crt.encode_int ch v in
      Array.iteri (fun i r -> sums.(i) <- sums.(i) + r) e)
    vals;
  Alcotest.(check string) "sum" (string_of_int (List.fold_left ( + ) 0 vals))
    (Z.to_string (Crt.decode ch sums))

let test_crt_rejects_noncoprime () =
  Alcotest.check_raises "non coprime" (Invalid_argument "Crt_channels.make: moduli not coprime")
    (fun () -> ignore (Crt.make [| 6; 9 |]))

let test_crt_with_bgn () =
  (* End-to-end: big value through BGN via channels. *)
  let ch = Crt.choose ~channel_bits:8 ~capacity_bits:34 in
  let v = Z.of_string "12345678901" in
  let residues = Crt.encode ch v in
  let cts = Array.map (fun r -> Bgn.enc1_int pk drbg r) residues in
  let table = Bgn.make_dec1_table kp ~max:300 in
  let dec = Array.map (fun c -> Option.get (Bgn.dec1 kp table ~max:300 c)) cts in
  Alcotest.(check string) "via bgn" (Z.to_string v) (Z.to_string (Crt.decode ch dec))

(* --- Paillier ----------------------------------------------------------- *)

let pkp = Paillier.keygen ~bits:128 drbg
let ppk = pkp.Paillier.pk

let test_paillier_roundtrip () =
  List.iter
    (fun m ->
      let m = Z.of_string m in
      let c = Paillier.encrypt ppk drbg m in
      Alcotest.(check string) ("dec " ^ Z.to_string m) (Z.to_string m)
        (Z.to_string (Paillier.decrypt pkp c)))
    [ "0"; "1"; "42"; "123456789012345678901234567890123456" ]

let test_paillier_additive () =
  let a = Z.of_string "111111111111111111" and b = Z.of_string "222222222222222222" in
  let ca = Paillier.encrypt ppk drbg a and cb = Paillier.encrypt ppk drbg b in
  Alcotest.(check string) "sum" (Z.to_string (Z.add a b))
    (Z.to_string (Paillier.decrypt pkp (Paillier.add ppk ca cb)));
  Alcotest.(check string) "scalar" (Z.to_string (Z.mul_int a 7))
    (Z.to_string (Paillier.decrypt pkp (Paillier.smul ppk (z 7) ca)))

let test_paillier_packed_blocks () =
  (* The §3.1 packing pattern: values shifted into 32-bit blocks, summed
     homomorphically, unpacked after decryption. *)
  let block v idx = Z.shift_left (z v) (32 * idx) in
  let rows = [ (1000, 1); (5000, 0); (1500, 0); (3000, 1); (2000, 1) ] in
  let cts = List.map (fun (v, g) -> Paillier.encrypt ppk drbg (block v g)) rows in
  let total = List.fold_left (Paillier.add ppk) (List.hd cts) (List.tl cts) in
  let packed = Paillier.decrypt pkp total in
  let block0 = Z.to_int_exn (Z.erem packed (Z.shift_left Z.one 32)) in
  let block1 = Z.to_int_exn (Z.erem (Z.shift_right packed 32) (Z.shift_left Z.one 32)) in
  Alcotest.(check int) "female total" 6500 block0;
  Alcotest.(check int) "male total" 6000 block1

let test_paillier_randomized () =
  let c1 = Paillier.encrypt ppk drbg (z 9) and c2 = Paillier.encrypt ppk drbg (z 9) in
  Alcotest.(check bool) "semantic" false (Z.equal c1 c2)

let qprop name count gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let table1_200 = Bgn.make_dec1_table kp ~max:200
let table2_900 = Bgn.make_dec2_table kp ~max:900

let props =
  [ qprop "bgn add1 homomorphic" 20 QCheck.(pair (int_range 0 100) (int_range 0 100))
      (fun (a, b) ->
        let c = Bgn.add1 pk (Bgn.enc1_int pk drbg a) (Bgn.enc1_int pk drbg b) in
        Bgn.dec1 kp table1_200 ~max:200 c = Some (a + b));
    qprop "bgn mul homomorphic" 10 QCheck.(pair (int_range 0 30) (int_range 0 30))
      (fun (a, b) ->
        let c = Bgn.mul pk (Bgn.enc1_int pk drbg a) (Bgn.enc1_int pk drbg b) in
        Bgn.dec2 kp table2_900 ~max:900 c = Some (a * b));
    qprop "paillier roundtrip" 20 QCheck.(int_range 0 1000000)
      (fun m ->
        Z.to_int_exn (Paillier.decrypt pkp (Paillier.encrypt_int ppk drbg m)) = m);
    qprop "crt roundtrip" 50 QCheck.(int_range 0 1000000000)
      (fun v ->
        let ch = Crt.choose ~channel_bits:8 ~capacity_bits:32 in
        Z.to_int_exn (Crt.decode ch (Crt.encode_int ch v)) = v);
  ]

let () =
  Alcotest.run "homomorphic"
    [ ("dlog", [ Alcotest.test_case "bsgs int group" `Quick test_dlog_int_group ]);
      ( "bgn-level1",
        [ Alcotest.test_case "enc/dec" `Quick test_bgn_enc_dec_level1;
          Alcotest.test_case "additive" `Quick test_bgn_additive;
          Alcotest.test_case "semantic randomness" `Quick test_bgn_semantic_randomness;
          Alcotest.test_case "table reuse" `Quick test_bgn_table_reuse ] );
      ( "bgn-level2",
        [ Alcotest.test_case "multiplication" `Quick test_bgn_multiplication;
          Alcotest.test_case "level2 additive" `Quick test_bgn_level2_additive;
          Alcotest.test_case "enc2 oracle, 64-bit key" `Quick test_enc2_oracle_64;
          Alcotest.test_case "enc2 oracle, 256-bit key" `Quick test_enc2_oracle_256;
          Alcotest.test_case "mul_many" `Quick test_bgn_mul_many;
          Alcotest.test_case "blinding vanishes" `Quick test_bgn_mul_bilinearity_of_blinding ] );
      ( "bgn-decryption",
        [ Alcotest.test_case "seams, 64-bit key" `Quick test_decryption_seams_64;
          Alcotest.test_case "seams, 256-bit key" `Quick test_decryption_seams_256 ] );
      ( "crt-channels",
        [ Alcotest.test_case "choose" `Quick test_crt_choose;
          Alcotest.test_case "roundtrip" `Quick test_crt_roundtrip;
          Alcotest.test_case "additive" `Quick test_crt_additive;
          Alcotest.test_case "rejects non-coprime" `Quick test_crt_rejects_noncoprime;
          Alcotest.test_case "with bgn" `Quick test_crt_with_bgn ] );
      ( "paillier",
        [ Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip;
          Alcotest.test_case "additive" `Quick test_paillier_additive;
          Alcotest.test_case "packed blocks (§3.1)" `Quick test_paillier_packed_blocks;
          Alcotest.test_case "randomized" `Quick test_paillier_randomized ] );
      ("properties", props);
    ]
