(* Tests for the bignum substrate: unit vectors plus qcheck properties
   checked against the native-int oracle. *)

module Z = Sagma_bigint.Bigint
module Nat = Sagma_bigint.Nat

(* Deterministic pseudo-random byte source for primality tests; test-only,
   so a simple splitmix-style generator is enough. *)
let test_rng : Z.rng =
  let state = ref 0x1e3779b97f4a7c15 in
  fun n ->
    String.init n (fun _ ->
        state := (!state * 2862933555777941757) + 1442695040888963407;
        Char.chr ((!state lsr 33) land 0xff))

let z = Z.of_int
let zs = Z.of_string

let check_z msg expected actual =
  Alcotest.(check string) msg (Z.to_string expected) (Z.to_string actual)

(* --- unit tests --------------------------------------------------------- *)

let test_of_to_int () =
  List.iter
    (fun x -> Alcotest.(check (option int)) "roundtrip" (Some x) (Z.to_int_opt (z x)))
    [ 0; 1; -1; 42; -42; 1 lsl 30; max_int; -max_int ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Z.to_string (zs s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "10000000000000000000000000000000000000000000001" ]

let test_hex_roundtrip () =
  let a = zs "123456789012345678901234567890123456789" in
  check_z "hex" a (Z.of_hex (Z.to_hex a));
  Alcotest.(check string) "ff" "255" (Z.to_string (Z.of_hex "ff"));
  Alcotest.(check string) "hex of 255" "ff" (Z.to_hex (z 255))

let test_bytes_roundtrip () =
  let a = zs "987654321098765432109876543210" in
  check_z "bytes" a (Z.of_bytes_be (Z.to_bytes_be a));
  Alcotest.(check string) "empty" "" (Z.to_bytes_be Z.zero)

let test_add_large () =
  let a = zs "99999999999999999999999999999999" in
  check_z "carry chain" (zs "100000000000000000000000000000000") (Z.succ a);
  check_z "a+a" (zs "199999999999999999999999999999998") (Z.add a a)

let test_mul_large () =
  let a = zs "123456789123456789123456789" in
  let b = zs "987654321987654321987654321" in
  check_z "product"
    (zs "121932631356500531591068431581771069347203169112635269")
    (Z.mul a b)

let test_karatsuba_matches_schoolbook () =
  (* Build operands big enough to cross the Karatsuba threshold. *)
  let big k seed =
    let digits = Buffer.create (k * 8) in
    Buffer.add_string digits "1";
    for i = 0 to k - 1 do
      Buffer.add_string digits (string_of_int (1000000 + ((seed * (i + 7) * 2654435761) land 0xfffff)))
    done;
    zs (Buffer.contents digits)
  in
  let a = big 80 3 and b = big 90 5 in
  let product = Z.mul a b in
  (* Verify via divmod: product / a = b exactly. *)
  let q, r = Z.divmod product a in
  check_z "quotient" b q;
  check_z "remainder" Z.zero r

let test_divmod_basic () =
  let a = zs "1000000000000000000000000000007" in
  let b = zs "1234567891011" in
  let q, r = Z.divmod a b in
  check_z "reconstruct" a (Z.add (Z.mul q b) r);
  Alcotest.(check bool) "remainder bound" true (Z.lt r b && Z.geq r Z.zero)

let test_divmod_signs () =
  (* Truncated semantics must match OCaml's (/) and (mod). *)
  List.iter
    (fun (a, b) ->
      let q, r = Z.divmod (z a) (z b) in
      Alcotest.(check int) (Printf.sprintf "q %d/%d" a b) (a / b) (Z.to_int_exn q);
      Alcotest.(check int) (Printf.sprintf "r %d/%d" a b) (a mod b) (Z.to_int_exn r))
    [ (7, 3); (-7, 3); (7, -3); (-7, -3); (6, 3); (-6, 3); (0, 5) ]

let test_ediv_rem () =
  List.iter
    (fun (a, b) ->
      let q, r = Z.ediv_rem (z a) (z b) in
      Alcotest.(check bool) "0 <= r < |b|" true
        (Z.geq r Z.zero && Z.lt r (Z.abs (z b)));
      check_z "a = q*b + r" (z a) (Z.add (Z.mul q (z b)) r))
    [ (7, 3); (-7, 3); (7, -3); (-7, -3); (0, 4); (-1, 1 lsl 40) ]

let test_shifts () =
  let a = zs "123456789123456789" in
  check_z "shl/shr" a (Z.shift_right (Z.shift_left a 67) 67);
  check_z "shl = *2^k" (Z.mul a (Z.pow Z.two 67)) (Z.shift_left a 67);
  check_z "shr drops" (Z.div a (Z.pow Z.two 5)) (Z.shift_right a 5)

let test_num_bits () =
  Alcotest.(check int) "zero" 0 (Z.num_bits Z.zero);
  Alcotest.(check int) "one" 1 (Z.num_bits Z.one);
  Alcotest.(check int) "255" 8 (Z.num_bits (z 255));
  Alcotest.(check int) "256" 9 (Z.num_bits (z 256));
  Alcotest.(check int) "2^100" 101 (Z.num_bits (Z.pow Z.two 100))

let test_pow () =
  check_z "2^10" (z 1024) (Z.pow Z.two 10);
  check_z "x^0" Z.one (Z.pow (z 12345) 0);
  check_z "3^40" (zs "12157665459056928801") (Z.pow (z 3) 40)

let test_powm () =
  let p = zs "1000000007" in
  (* Fermat: a^(p-1) = 1 mod p *)
  check_z "fermat" Z.one (Z.powm (z 123456789) (Z.pred p) p);
  check_z "zero exp" Z.one (Z.powm (z 5) Z.zero p);
  check_z "mod 1" Z.zero (Z.powm (z 5) (z 10) Z.one)

let test_egcd () =
  let a = zs "123456789123456789" and b = zs "987654321987654" in
  let g, x, y = Z.egcd a b in
  check_z "bezout" g (Z.add (Z.mul a x) (Z.mul b y));
  check_z "divides a" Z.zero (Z.erem a g);
  check_z "divides b" Z.zero (Z.erem b g)

let test_invm () =
  let p = zs "1000000007" in
  let a = z 123456 in
  let inv = Z.invm_exn a p in
  check_z "a * a^-1 = 1" Z.one (Z.mulm a inv p);
  Alcotest.(check bool) "non invertible" true (Z.invm (z 6) (z 9) = None)

let test_jacobi () =
  (* (a/p) agrees with Euler's criterion for odd primes. *)
  let p = z 1009 in
  for a = 1 to 50 do
    let ja = Z.jacobi (z a) p in
    let euler = Z.powm (z a) (Z.shift_right (Z.pred p) 1) p in
    let expected = if Z.equal euler Z.one then 1 else if Z.is_zero euler then 0 else -1 in
    Alcotest.(check int) (Printf.sprintf "jacobi %d/1009" a) expected ja
  done

let test_sqrtm () =
  let p = zs "1000003" in
  (* 1000003 mod 4 = 3 *)
  let a = z 1234 in
  let sq = Z.mulm a a p in
  (match Z.sqrtm_p3 sq p with
   | None -> Alcotest.fail "should have root"
   | Some r ->
     Alcotest.(check bool) "root" true (Z.equal r (Z.erem a p) || Z.equal r (Z.sub p (Z.erem a p))));
  (* A non-residue: find one by Jacobi. *)
  let nr = z 2 in
  if Z.jacobi nr p = -1 then
    Alcotest.(check bool) "non-residue" true (Z.sqrtm_p3 nr p = None)

let test_crt () =
  let x = Z.crt [ (z 2, z 3); (z 3, z 5); (z 2, z 7) ] in
  check_z "classic CRT" (z 23) x;
  let m1 = zs "1000003" and m2 = zs "1000033" in
  let v = zs "123456789012" in
  let x = Z.crt [ (Z.erem v m1, m1); (Z.erem v m2, m2) ] in
  check_z "two big moduli" (Z.erem v (Z.mul m1 m2)) x

let test_primality_known () =
  let primes = [ "2"; "3"; "5"; "101"; "1000000007"; "170141183460469231731687303715884105727" ] in
  let composites =
    [ "1"; "0"; "4"; "100"; "561"; "1105"; "6601"; (* Carmichael numbers *)
      "170141183460469231731687303715884105725" ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("prime " ^ s) true (Z.is_probable_prime test_rng (zs s)))
    primes;
  List.iter
    (fun s -> Alcotest.(check bool) ("composite " ^ s) false (Z.is_probable_prime test_rng (zs s)))
    composites

let test_random_prime () =
  let p = Z.random_prime test_rng ~bits:64 in
  Alcotest.(check int) "exact bits" 64 (Z.num_bits p);
  Alcotest.(check bool) "prime" true (Z.is_probable_prime test_rng p)

let test_random_below () =
  let bound = zs "1000000000000" in
  for _ = 1 to 50 do
    let v = Z.random_below test_rng bound in
    Alcotest.(check bool) "in range" true (Z.geq v Z.zero && Z.lt v bound)
  done

let test_nat_divmod_edge () =
  (* Exercise the add-back branch region with adversarial divisors. *)
  let a = Z.pred (Z.pow Z.two 260) in
  let b = Z.succ (Z.pow Z.two 130) in
  let q, r = Z.divmod a b in
  check_z "reconstruct" a (Z.add (Z.mul q b) r);
  Alcotest.(check bool) "bound" true (Z.lt r b)

(* --- Montgomery multiplication ------------------------------------------ *)

module Mont = Sagma_bigint.Montgomery

let big_odd_modulus =
  (* 2^192 - 237, a prime; comfortably over the dispatch threshold. *)
  Z.sub (Z.pow Z.two 192) (z 237)

let test_montgomery_limb_inverse () =
  List.iter
    (fun n0 ->
      let inv = Mont.limb_inverse n0 in
      Alcotest.(check int) (Printf.sprintf "inv %d" n0) 1 (n0 * inv land ((1 lsl 26) - 1)))
    [ 1; 3; 5; 1023; 12345677; 67108863 ]

let test_montgomery_roundtrip () =
  let ctx = Mont.make (Sagma_bigint.Nat.of_hex (Z.to_hex big_odd_modulus)) in
  List.iter
    (fun v ->
      let v = Z.erem v big_odd_modulus in
      let nat = Sagma_bigint.Nat.of_hex (Z.to_hex v) in
      let back = Mont.of_mont ctx (Mont.to_mont ctx nat) in
      Alcotest.(check string) "to/of mont" (Z.to_string v)
        (Sagma_bigint.Nat.to_string back))
    [ Z.zero; Z.one; z 123456789; Z.pred big_odd_modulus; Z.pow (z 3) 100 ]

let test_montgomery_powm_fermat () =
  (* a^(p-1) = 1 mod p through the Montgomery path. *)
  let a = zs "987654321987654321987654321" in
  check_z "fermat via montgomery" Z.one (Z.powm a (Z.pred big_odd_modulus) big_odd_modulus)

let test_montgomery_matches_small_path () =
  (* Same powm results whether or not Montgomery dispatches: compare a
     big odd modulus against brute iteration. *)
  let m = big_odd_modulus in
  let b = zs "314159265358979323846264338327950288419" in
  let rec naive acc e = if e = 0 then acc else naive (Z.mulm acc b m) (e - 1) in
  for e = 0 to 20 do
    check_z (Printf.sprintf "b^%d" e) (naive Z.one e) (Z.powm b (z e) m)
  done

(* The product-scanning kernel against Nat.mul and Nat.rem: mont_mul
   a b must be the residue r < n with r·R ≡ a·b (mod n). Limb counts
   1, 2, 3 (64-bit keys), 40 (1024-bit keys), 159 (the p of a 4096-bit
   key) and 511 (the column bound); the all-ones modulus with n − 1
   operands fills every column to its largest sum. *)
let test_montgomery_kernel_edges () =
  let module Nat = Sagma_bigint.Nat in
  let state = ref 0x5eed in
  let limb () =
    state := (!state * 1103515245 + 12345) land 0x3fffffffffff;
    (!state lsr 13) land Nat.limb_mask
  in
  let random_odd k =
    let n = Array.init k (fun _ -> limb ()) in
    n.(0) <- n.(0) lor 1;
    n.(k - 1) <- n.(k - 1) lor (1 lsl 25);
    n
  in
  let all_ones k = Array.make k Nat.limb_mask in
  let below n = Nat.rem (Array.init (Array.length n) (fun _ -> limb ())) n in
  List.iter
    (fun k ->
      List.iter
        (fun (label, n) ->
          let ctx = Mont.make n in
          let nm1 = Nat.sub n (Nat.of_int 1) in
          let operands = [ Nat.zero; Nat.of_int 1; nm1; Nat.sub n (Nat.of_int 2); below n; below n ] in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let r = Nat.normalize (Mont.mont_mul ctx (Mont.pad ctx a) (Mont.pad ctx b)) in
                  let name = Printf.sprintf "k=%d %s" k label in
                  Alcotest.(check bool) (name ^ ": reduced") true (Nat.compare r n < 0);
                  Alcotest.(check string) name
                    (Nat.to_hex (Nat.rem (Nat.mul a b) n))
                    (Nat.to_hex (Nat.rem (Nat.shift_left r (k * Nat.limb_bits)) n)))
                operands)
            operands)
        [ ("random", random_odd k); ("all-ones", all_ones k) ])
    [ 1; 2; 3; 40; 159; Mont.max_limbs ]

(* Above the column bound the kernel refuses the modulus and powm stays
   on the binary path; it must still agree with repeated mulm. *)
let test_montgomery_limb_bound () =
  let module Nat = Sagma_bigint.Nat in
  let k = Mont.max_limbs + 1 in
  let n = Array.make k Nat.limb_mask in
  (match Mont.make n with
   | _ -> Alcotest.fail "Montgomery.make accepted a 512-limb modulus"
   | exception Invalid_argument _ -> ());
  let m = Z.pred (Z.shift_left Z.one (k * Nat.limb_bits)) in
  let m = Z.sub m (z 1234) in
  let b = Z.add (Z.pow (z 7) 4000) (z 99) in
  let acc = ref Z.one in
  for e = 1 to 37 do
    acc := Z.mulm !acc b m;
    if e >= 16 then check_z (Printf.sprintf "b^%d" e) !acc (Z.powm b (z e) m)
  done

(* --- qcheck properties --------------------------------------------------- *)

let small_int_gen = QCheck.int_range (-1_000_000_000) 1_000_000_000

(* Arbitrary bigints of up to ~200 bits, built from int chunks. *)
let big_gen =
  QCheck.make
    ~print:(fun l -> Z.to_string (snd l))
    QCheck.Gen.(
      list_size (int_range 1 7) (int_range 0 ((1 lsl 30) - 1)) >>= fun chunks ->
      bool >|= fun negative ->
      let v = List.fold_left (fun acc c -> Z.add (Z.shift_left acc 30) (Z.of_int c)) Z.zero chunks in
      ((negative, chunks), if negative then Z.neg v else v))

let qprop name count gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let props =
  [ qprop "add matches int oracle" 500
      QCheck.(pair small_int_gen small_int_gen)
      (fun (a, b) -> Z.to_int_exn (Z.add (z a) (z b)) = a + b);
    qprop "mul matches int oracle" 500
      QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
      (fun (a, b) -> Z.to_int_exn (Z.mul (z a) (z b)) = a * b);
    qprop "divmod matches int oracle" 500
      QCheck.(pair small_int_gen (int_range 1 1000000))
      (fun (a, b) ->
        let q, r = Z.divmod (z a) (z b) in
        Z.to_int_exn q = a / b && Z.to_int_exn r = a mod b);
    qprop "string roundtrip" 300 big_gen
      (fun (_, v) -> Z.equal v (Z.of_string (Z.to_string v)));
    qprop "add commutative" 300 QCheck.(pair big_gen big_gen)
      (fun ((_, a), (_, b)) -> Z.equal (Z.add a b) (Z.add b a));
    qprop "add associative" 300 QCheck.(triple big_gen big_gen big_gen)
      (fun ((_, a), (_, b), (_, c)) ->
        Z.equal (Z.add (Z.add a b) c) (Z.add a (Z.add b c)));
    qprop "mul distributes over add" 300 QCheck.(triple big_gen big_gen big_gen)
      (fun ((_, a), (_, b), (_, c)) ->
        Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)));
    qprop "sub inverse of add" 300 QCheck.(pair big_gen big_gen)
      (fun ((_, a), (_, b)) -> Z.equal a (Z.sub (Z.add a b) b));
    qprop "divmod reconstructs" 300 QCheck.(pair big_gen big_gen)
      (fun ((_, a), (_, b)) ->
        QCheck.assume (not (Z.is_zero b));
        let q, r = Z.divmod a b in
        Z.equal a (Z.add (Z.mul q b) r) && Z.lt (Z.abs r) (Z.abs b));
    qprop "erem in range" 300 QCheck.(pair big_gen big_gen)
      (fun ((_, a), (_, b)) ->
        QCheck.assume (not (Z.is_zero b));
        let r = Z.erem a b in
        Z.geq r Z.zero && Z.lt r (Z.abs b));
    qprop "compare antisymmetric" 300 QCheck.(pair big_gen big_gen)
      (fun ((_, a), (_, b)) -> Z.compare a b = -Z.compare b a);
    qprop "gcd divides both" 200 QCheck.(pair big_gen big_gen)
      (fun ((_, a), (_, b)) ->
        QCheck.assume (not (Z.is_zero a) || not (Z.is_zero b));
        let g = Z.gcd a b in
        Z.gt g Z.zero && Z.is_zero (Z.erem a g) && Z.is_zero (Z.erem b g));
    qprop "powm agrees with pow" 100
      QCheck.(triple (int_range 0 50) (int_range 0 12) (int_range 2 100000))
      (fun (b, e, m) ->
        Z.equal (Z.powm (z b) (z e) (z m)) (Z.erem (Z.pow (z b) e) (z m)));
    qprop "montgomery powm exponent law" 60 QCheck.(triple big_gen big_gen big_gen)
      (fun ((_, a), (_, e1), (_, e2)) ->
        (* a^(e1+e2) = a^e1 · a^e2 mod m, with a modulus big and odd
           enough to force the Montgomery dispatch path. *)
        let m = Z.succ (Z.shift_left (Z.abs a) 130) in
        let a = Z.abs e1 and e1 = Z.abs e1 and e2 = Z.abs e2 in
        Z.equal
          (Z.powm a (Z.add e1 e2) m)
          (Z.mulm (Z.powm a e1 m) (Z.powm a e2 m) m));
    qprop "invm correct when coprime" 200
      QCheck.(pair (int_range 1 1000000) (int_range 2 1000000))
      (fun (a, m) ->
        match Z.invm (z a) (z m) with
        | None -> not (Z.equal (Z.gcd (z a) (z m)) Z.one)
        | Some inv -> Z.equal Z.one (Z.mulm (z a) inv (z m)));
    qprop "shift roundtrip" 200 QCheck.(pair big_gen (int_range 0 100))
      (fun ((_, a), k) ->
        let a = Z.abs a in
        Z.equal a (Z.shift_right (Z.shift_left a k) k));
    qprop "hex roundtrip" 200 big_gen
      (fun (_, v) -> Z.equal v (Z.of_hex (Z.to_hex v)));
    qprop "num_bits bounds value" 200 big_gen
      (fun (_, v) ->
        let v = Z.abs v in
        let b = Z.num_bits v in
        if Z.is_zero v then b = 0
        else Z.lt v (Z.pow Z.two b) && Z.geq v (Z.pow Z.two (b - 1)));
  ]

let () =
  Alcotest.run "bigint"
    [ ( "unit",
        [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "add large" `Quick test_add_large;
          Alcotest.test_case "mul large" `Quick test_mul_large;
          Alcotest.test_case "karatsuba vs schoolbook" `Quick test_karatsuba_matches_schoolbook;
          Alcotest.test_case "divmod basic" `Quick test_divmod_basic;
          Alcotest.test_case "divmod signs" `Quick test_divmod_signs;
          Alcotest.test_case "ediv_rem" `Quick test_ediv_rem;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "powm" `Quick test_powm;
          Alcotest.test_case "egcd" `Quick test_egcd;
          Alcotest.test_case "invm" `Quick test_invm;
          Alcotest.test_case "jacobi" `Quick test_jacobi;
          Alcotest.test_case "sqrtm p=3 mod 4" `Quick test_sqrtm;
          Alcotest.test_case "crt" `Quick test_crt;
          Alcotest.test_case "primality known values" `Quick test_primality_known;
          Alcotest.test_case "random prime" `Quick test_random_prime;
          Alcotest.test_case "random below" `Quick test_random_below;
          Alcotest.test_case "divmod adversarial" `Quick test_nat_divmod_edge;
        ] );
      ( "montgomery",
        [ Alcotest.test_case "limb inverse" `Quick test_montgomery_limb_inverse;
          Alcotest.test_case "roundtrip" `Quick test_montgomery_roundtrip;
          Alcotest.test_case "fermat" `Quick test_montgomery_powm_fermat;
          Alcotest.test_case "matches naive" `Quick test_montgomery_matches_small_path;
          Alcotest.test_case "kernel edges" `Quick test_montgomery_kernel_edges;
          Alcotest.test_case "limb bound" `Quick test_montgomery_limb_bound ] );
      ("properties", props);
    ]
