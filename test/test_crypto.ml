(* Tests for the symmetric crypto substrate against published vectors
   (FIPS 180-4, RFC 4231, RFC 5869, RFC 8439) plus behavioural properties. *)

module C = Sagma_crypto
module Hex = C.Encoding

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.to_hex actual)

(* --- SHA-256: FIPS 180-4 / NIST CAVS vectors --- *)

let test_sha256_vectors () =
  let cases =
    [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
      ("The quick brown fox jumps over the lazy dog",
       "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592") ]
  in
  List.iter (fun (msg, want) -> check_hex ("sha256 " ^ msg) want (C.Sha256.digest msg)) cases

let test_sha256_million_a () =
  (* FIPS long test: one million 'a'. *)
  let msg = String.make 1_000_000 'a' in
  check_hex "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (C.Sha256.digest msg)

let test_sha256_block_boundaries () =
  (* Lengths around the 55/56/64 padding boundaries must not crash and must
     be distinct. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let d = C.Sha256.digest (String.make n 'x') in
      Alcotest.(check bool) (Printf.sprintf "unique %d" n) false (Hashtbl.mem seen d);
      Hashtbl.add seen d n)
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

(* --- HMAC-SHA256: RFC 4231 --- *)

let test_hmac_rfc4231 () =
  let cases =
    [ (String.make 20 '\x0b', "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
      ("Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
      (String.make 20 '\xaa', String.make 50 '\xdd',
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
      (String.make 131 '\xaa', "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54") ]
  in
  List.iter
    (fun (key, msg, want) -> check_hex "hmac" want (C.Hmac.mac ~key msg))
    cases

let test_hmac_verify () =
  let key = "secret key" and msg = "message" in
  let tag = C.Hmac.mac ~key msg in
  Alcotest.(check bool) "accepts" true (C.Hmac.verify ~key msg tag);
  Alcotest.(check bool) "rejects bad tag" false (C.Hmac.verify ~key msg (String.make 32 '\000'));
  Alcotest.(check bool) "rejects bad msg" false (C.Hmac.verify ~key "other" tag)

(* --- HKDF: RFC 5869 test case 1 --- *)

let test_hkdf_rfc5869 () =
  let ikm = String.make 22 '\x0b' in
  let salt = Hex.of_hex "000102030405060708090a0b0c" in
  let info = Hex.of_hex "f0f1f2f3f4f5f6f7f8f9" in
  let okm = C.Hmac.hkdf ~salt ~info ~ikm 42 in
  check_hex "hkdf tc1"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    okm

(* --- ChaCha20: RFC 8439 --- *)

let test_chacha20_block_vector () =
  (* RFC 8439 section 2.3.2 *)
  let key = Hex.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hex.of_hex "000000090000004a00000000" in
  let ks = C.Chacha20.block ~key ~nonce 1 in
  check_hex "keystream block"
    ("10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
     ^ "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
    ks

let test_chacha20_encrypt_vector () =
  (* RFC 8439 section 2.4.2 *)
  let key = Hex.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hex.of_hex "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ct = C.Chacha20.encrypt ~counter:1 ~key ~nonce plaintext in
  check_hex "ciphertext"
    ("6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
     ^ "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
     ^ "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
     ^ "5af90bbf74a35be6b40b8eedf2785e42874d")
    ct;
  Alcotest.(check string) "roundtrip" plaintext (C.Chacha20.decrypt ~counter:1 ~key ~nonce ct)

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = C.Drbg.create "seed-1" and b = C.Drbg.create "seed-1" in
  Alcotest.(check string) "same seed same stream" (C.Drbg.bytes a 100) (C.Drbg.bytes b 100);
  let c = C.Drbg.create "seed-2" in
  Alcotest.(check bool) "different seeds differ" true (C.Drbg.bytes c 100 <> C.Drbg.bytes b 100)
  [@@warning "-6"]

let test_drbg_chunking_irrelevant () =
  let a = C.Drbg.create "s" and b = C.Drbg.create "s" in
  let big = C.Drbg.bytes a 100 in
  let p1 = C.Drbg.bytes b 3 in
  let p2 = C.Drbg.bytes b 64 in
  let p3 = C.Drbg.bytes b 33 in
  let parts = p1 ^ p2 ^ p3 in
  Alcotest.(check string) "chunking" big parts

let test_drbg_int_below () =
  let d = C.Drbg.of_int_seed 7 in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    let v = C.Drbg.int_below d 10 in
    Alcotest.(check bool) "range" true (v >= 0 && v < 10);
    counts.(v) <- counts.(v) + 1
  done;
  (* Rough uniformity: every bucket within 3x of the mean. *)
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "bucket %d populated" i) true (c > 166 && c < 1500))
    counts

let test_drbg_shuffle_permutes () =
  let d = C.Drbg.of_int_seed 42 in
  let a = Array.init 50 (fun i -> i) in
  C.Drbg.shuffle d a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

(* --- PRF --- *)

let test_prf_determinism_and_bound () =
  let d = C.Drbg.of_int_seed 1 in
  let k = C.Prf.gen_key d in
  Alcotest.(check string) "deterministic" (C.Prf.eval k "x") (C.Prf.eval k "x");
  Alcotest.(check bool) "keyed" true
    (C.Prf.eval k "x" <> C.Prf.eval (C.Prf.derive k ~domain:"other") "x");
  for i = 0 to 200 do
    let v = C.Prf.eval_int k (string_of_int i) ~bound:7 in
    Alcotest.(check bool) "bound" true (v >= 0 && v < 7)
  done

let test_prf_int_distribution () =
  let d = C.Drbg.of_int_seed 2 in
  let k = C.Prf.gen_key d in
  let counts = Array.make 5 0 in
  for i = 0 to 4999 do
    let v = C.Prf.eval_int k ("input" ^ string_of_int i) ~bound:5 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 600 && c < 1500)) counts

(* --- Secretbox --- *)

let test_secretbox_roundtrip () =
  let d = C.Drbg.of_int_seed 3 in
  let k = C.Secretbox.gen_key d in
  List.iter
    (fun pt ->
      let box = C.Secretbox.seal k d pt in
      Alcotest.(check string) "roundtrip" pt (C.Secretbox.open_exn k box))
    [ ""; "a"; "hello world"; String.make 1000 'z' ]

let test_secretbox_tamper () =
  let d = C.Drbg.of_int_seed 4 in
  let k = C.Secretbox.gen_key d in
  let box = C.Secretbox.seal k d "attack at dawn" in
  let tampered = Bytes.of_string box in
  Bytes.set tampered (String.length box / 2)
    (Char.chr (Char.code (Bytes.get tampered (String.length box / 2)) lxor 1));
  Alcotest.(check bool) "tamper detected" true
    (C.Secretbox.open_opt k (Bytes.to_string tampered) = None);
  let d2 = C.Drbg.of_int_seed 5 in
  let k2 = C.Secretbox.gen_key d2 in
  Alcotest.(check bool) "wrong key" true (C.Secretbox.open_opt k2 box = None)

let test_secretbox_nondeterministic () =
  let d = C.Drbg.of_int_seed 6 in
  let k = C.Secretbox.gen_key d in
  let b1 = C.Secretbox.seal k d "msg" and b2 = C.Secretbox.seal k d "msg" in
  Alcotest.(check bool) "fresh nonces" true (b1 <> b2)

(* --- Encoding --- *)

let test_encoding () =
  Alcotest.(check string) "hex enc" "00ff10" (Hex.to_hex "\x00\xff\x10");
  Alcotest.(check string) "hex dec" "\x00\xff\x10" (Hex.of_hex "00ff10");
  Alcotest.(check string) "xor" "\x03" (Hex.xor "\x01" "\x02");
  Alcotest.(check bool) "ct eq" true (Hex.equal_ct "abc" "abc");
  Alcotest.(check bool) "ct neq" false (Hex.equal_ct "abc" "abd");
  Alcotest.(check bool) "ct len" false (Hex.equal_ct "ab" "abc")

let qprop name count gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let props =
  [ qprop "chacha20 decrypt inverts encrypt" 100 QCheck.(string_of_size (QCheck.Gen.int_range 0 300))
      (fun pt ->
        let key = String.make 32 'k' and nonce = String.make 12 'n' in
        C.Chacha20.decrypt ~key ~nonce (C.Chacha20.encrypt ~key ~nonce pt) = pt);
    qprop "hex roundtrip" 200 QCheck.(string_of_size (QCheck.Gen.int_range 0 100))
      (fun s -> Hex.of_hex (Hex.to_hex s) = s);
    qprop "secretbox roundtrip" 50 QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
      (fun pt ->
        let d = C.Drbg.of_int_seed 99 in
        let k = C.Secretbox.gen_key d in
        C.Secretbox.open_exn k (C.Secretbox.seal k d pt) = pt);
    qprop "sha256 distinct on distinct inputs" 200 QCheck.(pair small_string small_string)
      (fun (a, b) -> a = b || C.Sha256.digest a <> C.Sha256.digest b);
  ]

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries ] );
      ( "hmac",
        [ Alcotest.test_case "rfc4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "hkdf rfc5869" `Quick test_hkdf_rfc5869 ] );
      ( "chacha20",
        [ Alcotest.test_case "block vector" `Quick test_chacha20_block_vector;
          Alcotest.test_case "encrypt vector" `Quick test_chacha20_encrypt_vector ] );
      ( "drbg",
        [ Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "chunking" `Quick test_drbg_chunking_irrelevant;
          Alcotest.test_case "int_below" `Quick test_drbg_int_below;
          Alcotest.test_case "shuffle" `Quick test_drbg_shuffle_permutes ] );
      ( "prf",
        [ Alcotest.test_case "determinism + bound" `Quick test_prf_determinism_and_bound;
          Alcotest.test_case "distribution" `Quick test_prf_int_distribution ] );
      ( "secretbox",
        [ Alcotest.test_case "roundtrip" `Quick test_secretbox_roundtrip;
          Alcotest.test_case "tamper" `Quick test_secretbox_tamper;
          Alcotest.test_case "nondeterministic" `Quick test_secretbox_nondeterministic ] );
      ("encoding", [ Alcotest.test_case "basics" `Quick test_encoding ]);
      ("properties", props);
    ]
