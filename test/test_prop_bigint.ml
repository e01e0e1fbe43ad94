(* Algebraic property suite for Sagma_bigint: ring laws, the divmod
   invariant, modexp/inverse/CRT/Jacobi cross-checks, plus pinned
   regression values for the Knuth Algorithm-D division edge cases
   (add-back path, negative operands, divisor with high limb ≥ base/2).

   The pinned quotients/remainders below were verified against an
   independent implementation (CPython's bignum divmod); the add-back
   inputs were found by instrumenting the add-back branch of
   lib/bigint/nat.ml and confirming it fires. *)

module Z = Sagma_bigint.Bigint
module Gen = Sagma_prop.Gen
module Shrink = Sagma_prop.Shrink
module R = Sagma_prop.Runner

let z_arb = R.arbitrary ~shrink:Shrink.bigint ~print:Z.to_string (Gen.bigint_signed ())

let z_pos_arb = R.arbitrary ~shrink:Shrink.bigint ~print:Z.to_string (Gen.bigint ())

let pair_print (a, b) = Printf.sprintf "(%s, %s)" (Z.to_string a) (Z.to_string b)

let triple_print (a, b, c) =
  Printf.sprintf "(%s, %s, %s)" (Z.to_string a) (Z.to_string b) (Z.to_string c)

let z2_arb =
  R.arbitrary
    ~shrink:(Shrink.pair Shrink.bigint Shrink.bigint)
    ~print:pair_print
    (Gen.pair (Gen.bigint_signed ()) (Gen.bigint_signed ()))

let z3_arb =
  R.arbitrary
    ~shrink:(Shrink.triple Shrink.bigint Shrink.bigint Shrink.bigint)
    ~print:triple_print
    (Gen.triple (Gen.bigint_signed ()) (Gen.bigint_signed ()) (Gen.bigint_signed ()))

(* --- ring laws --------------------------------------------------------------- *)

let t_add_comm = R.test ~count:300 ~name:"add commutative" z2_arb
    (fun (a, b) -> Z.equal (Z.add a b) (Z.add b a))

let t_add_assoc = R.test ~count:300 ~name:"add associative" z3_arb
    (fun (a, b, c) -> Z.equal (Z.add a (Z.add b c)) (Z.add (Z.add a b) c))

let t_mul_comm = R.test ~count:300 ~name:"mul commutative" z2_arb
    (fun (a, b) -> Z.equal (Z.mul a b) (Z.mul b a))

let t_mul_assoc = R.test ~count:200 ~name:"mul associative" z3_arb
    (fun (a, b, c) -> Z.equal (Z.mul a (Z.mul b c)) (Z.mul (Z.mul a b) c))

let t_distrib = R.test ~count:300 ~name:"mul distributes over add" z3_arb
    (fun (a, b, c) -> Z.equal (Z.mul a (Z.add b c)) (Z.add (Z.mul a b) (Z.mul a c)))

let t_add_sub = R.test ~count:300 ~name:"(a + b) - b = a" z2_arb
    (fun (a, b) -> Z.equal (Z.sub (Z.add a b) b) a)

let t_neg = R.test ~count:300 ~name:"neg involution and absorption" z_arb
    (fun a ->
      Z.equal (Z.neg (Z.neg a)) a
      && Z.is_zero (Z.add a (Z.neg a))
      && Z.equal (Z.abs a) (Z.abs (Z.neg a))
      && Z.sign (Z.neg a) = -Z.sign a)

let t_mul_int = R.test ~count:300 ~name:"mul_int agrees with mul"
    (R.arbitrary
       ~shrink:(Shrink.pair Shrink.bigint Shrink.int)
       ~print:(fun (a, k) -> Printf.sprintf "(%s, %d)" (Z.to_string a) k)
       (Gen.pair (Gen.bigint_signed ()) (Gen.int_edgy (-1000000) 1000000)))
    (fun (a, k) -> Z.equal (Z.mul_int a k) (Z.mul a (Z.of_int k)))

(* --- division ---------------------------------------------------------------- *)

let nonzero_pair = Gen.pair (Gen.bigint_signed ())
    (Gen.map2 (fun neg z -> if neg then Z.neg z else z) Gen.bool (Gen.bigint_nonzero ()))

let t_divmod = R.test ~count:400 ~name:"divmod invariant (truncated)"
    (R.arbitrary ~shrink:(Shrink.pair Shrink.bigint Shrink.bigint) ~print:pair_print nonzero_pair)
    (fun (a, b) ->
      if Z.is_zero b then raise R.Discard;
      let q, r = Z.divmod a b in
      Z.equal a (Z.add (Z.mul q b) r)
      && Z.lt (Z.abs r) (Z.abs b)
      && (Z.is_zero r || Z.sign r = Z.sign a))

let t_ediv = R.test ~count:400 ~name:"ediv_rem invariant (euclidean)"
    (R.arbitrary ~shrink:(Shrink.pair Shrink.bigint Shrink.bigint) ~print:pair_print nonzero_pair)
    (fun (a, b) ->
      if Z.is_zero b then raise R.Discard;
      let q, r = Z.ediv_rem a b in
      Z.equal a (Z.add (Z.mul q b) r) && Z.sign r >= 0 && Z.lt r (Z.abs b))

let t_divmod_native = R.test ~count:400 ~name:"divmod matches native / and mod"
    (R.arbitrary
       ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
       (Gen.pair (Gen.int_edgy (-1000000) 1000000) (Gen.int_edgy (-1000) 1000)))
    (fun (a, b) ->
      if b = 0 then raise R.Discard;
      let q, r = Z.divmod (Z.of_int a) (Z.of_int b) in
      Z.equal q (Z.of_int (a / b)) && Z.equal r (Z.of_int (a mod b)))

(* --- encodings and bit operations -------------------------------------------- *)

let t_string_rt = R.test ~count:300 ~name:"of_string . to_string = id" z_arb
    (fun a -> Z.equal (Z.of_string (Z.to_string a)) a)

let t_hex_rt = R.test ~count:300 ~name:"of_hex . to_hex = id (magnitude)" z_pos_arb
    (fun a -> Z.equal (Z.of_hex (Z.to_hex a)) a)

let t_bytes_rt = R.test ~count:300 ~name:"of_bytes_be . to_bytes_be = id" z_pos_arb
    (fun a -> Z.equal (Z.of_bytes_be (Z.to_bytes_be a)) a)

let t_shift = R.test ~count:300 ~name:"shifts multiply and divide by 2^k"
    (R.arbitrary
       ~print:(fun (a, k) -> Printf.sprintf "(%s, %d)" (Z.to_string a) k)
       (Gen.pair (Gen.bigint ()) (Gen.int_range 0 120)))
    (fun (a, k) ->
      Z.equal (Z.shift_left a k) (Z.mul a (Z.pow Z.two k))
      && Z.equal (Z.shift_right (Z.shift_left a k) k) a)

let t_num_bits = R.test ~count:300 ~name:"num_bits brackets the magnitude" z_pos_arb
    (fun a ->
      if Z.is_zero a then Z.num_bits a = 0
      else begin
        let n = Z.num_bits a in
        Z.leq (Z.pow Z.two (n - 1)) a && Z.lt a (Z.pow Z.two n)
      end)

(* --- modular arithmetic ------------------------------------------------------- *)

let modulus_gen = Gen.map (fun z -> Z.add (Z.abs z) Z.two) (Gen.bigint ~bits:128 ())

let t_powm_iter = R.test ~count:150 ~name:"powm matches iterated mulm"
    (R.arbitrary
       ~print:(fun ((a, m), e) -> Printf.sprintf "(%s^%d mod %s)" (Z.to_string a) e (Z.to_string m))
       (Gen.pair (Gen.pair (Gen.bigint ()) modulus_gen) (Gen.int_range 0 24)))
    (fun ((a, m), e) ->
      let expected = ref (Z.erem Z.one m) in
      for _ = 1 to e do
        expected := Z.mulm !expected a m
      done;
      Z.equal (Z.powm a (Z.of_int e) m) !expected)

let t_powm_add = R.test ~count:150 ~name:"powm exponent addition law"
    (R.arbitrary
       ~print:(fun ((a, m), (e1, e2)) ->
         Printf.sprintf "(%s, %s, %s, %s)" (Z.to_string a) (Z.to_string m) (Z.to_string e1)
           (Z.to_string e2))
       (Gen.pair (Gen.pair (Gen.bigint ()) modulus_gen)
          (Gen.pair (Gen.bigint_bits 64) (Gen.bigint_bits 64))))
    (fun ((a, m), (e1, e2)) ->
      Z.equal (Z.powm a (Z.add e1 e2) m) (Z.mulm (Z.powm a e1 m) (Z.powm a e2 m) m))

let t_invm = R.test ~count:200 ~name:"invm inverts exactly the units"
    (R.arbitrary ~print:pair_print (Gen.pair (Gen.bigint ()) modulus_gen))
    (fun (a, m) ->
      match Z.invm a m with
      | Some inv -> Z.equal (Z.mulm a inv m) (Z.erem Z.one m)
      | None -> not (Z.equal (Z.gcd a m) Z.one))

let odd_modulus_gen = Gen.map (fun z -> Z.succ (Z.mul_int (Z.add (Z.abs z) Z.one) 2)) (Gen.bigint ~bits:128 ())

let t_invm_batch = R.test ~count:100 ~name:"invm_batch agrees with per-element invm"
    (R.arbitrary
       ~print:(fun (xs, m) ->
         Printf.sprintf "([%s], %s)"
           (String.concat "; " (List.map Z.to_string xs))
           (Z.to_string m))
       (Gen.pair (Gen.list ~max_len:8 (Gen.bigint ())) modulus_gen))
    (fun (xs, m) ->
      (* Keep only units so the batch is well-defined. *)
      let xs = List.filter (fun x -> Z.equal (Z.gcd x m) Z.one) xs in
      let arr = Array.of_list xs in
      let batch = Z.invm_batch arr m in
      Array.length batch = Array.length arr
      && Array.for_all2 (fun x inv -> Z.equal inv (Z.invm_exn x m)) arr batch)

let t_mont = R.test ~count:150 ~name:"Mont ring ops match plain modular arithmetic"
    (R.arbitrary
       ~print:(fun ((a, b), m) ->
         Printf.sprintf "((%s, %s), %s)" (Z.to_string a) (Z.to_string b) (Z.to_string m))
       (Gen.pair (Gen.pair (Gen.bigint ()) (Gen.bigint ())) odd_modulus_gen))
    (fun ((a, b), m) ->
      let c = Z.Mont.make m in
      let ma = Z.Mont.of_z c a and mb = Z.Mont.of_z c b in
      Z.equal (Z.Mont.to_z c ma) (Z.erem a m)
      && Z.equal (Z.Mont.to_z c (Z.Mont.mul c ma mb)) (Z.mulm a b m)
      && Z.equal (Z.Mont.to_z c (Z.Mont.add c ma mb)) (Z.addm a b m)
      && Z.equal (Z.Mont.to_z c (Z.Mont.sub c ma mb)) (Z.subm a b m)
      && Z.equal (Z.Mont.to_z c (Z.Mont.one c)) (Z.erem Z.one m)
      && Z.Mont.is_zero (Z.Mont.zero c)
      && Z.Mont.equal ma (Z.Mont.of_z c (Z.add a m)))

(* The windowed Montgomery power against square-and-multiply, on odd
   moduli from 96 to 2100 bits. Exponents have an exact bit length:
   0–5 bits, a multiple of the 4-bit window, or any length up to 260;
   bases are 0, below the modulus, the modulus itself or above it. *)
let exact_bits k = Gen.map (fun z -> if k = 0 then Z.zero else Z.add (Z.shift_left Z.one (k - 1)) z) (Gen.bigint_bits (max 0 (k - 1)))

let t_mont_powm = R.test ~count:120 ~name:"windowed Montgomery.powm = powm_binary"
    (R.arbitrary
       ~print:(fun ((a, e), m) ->
         Printf.sprintf "(%s^%s mod %s)" (Z.to_string a) (Z.to_string e) (Z.to_string m))
       (Gen.bind (Gen.int_range 96 2100) (fun bits ->
            Gen.bind (Gen.map (fun z -> Z.add z Z.one) (Gen.map (fun z -> Z.shift_left z 1) (exact_bits (bits - 1))))
              (fun m ->
                Gen.pair
                  (Gen.pair
                     (Gen.oneof
                        [ Gen.return Z.zero; Gen.bigint_below m; Gen.return m;
                          Gen.map (Z.add m) (Gen.bigint_bits bits) ])
                     (Gen.bind
                        (Gen.oneof [ Gen.int_range 0 5; Gen.map (fun w -> 4 * w) (Gen.int_range 1 65); Gen.int_range 6 260 ])
                        exact_bits))
                  (Gen.return m)))))
    (fun ((a, e), m) ->
      let nat z = Sagma_bigint.Nat.of_bytes_be (Z.to_bytes_be z) in
      let ctx = Sagma_bigint.Montgomery.make (nat m) in
      let got = Z.of_bytes_be (Sagma_bigint.Nat.to_bytes_be (Sagma_bigint.Montgomery.powm ctx (nat a) (nat e))) in
      Z.equal got (Z.powm_binary a e m))

let t_egcd = R.test ~count:300 ~name:"egcd Bezout identity" z2_arb
    (fun (a, b) ->
      let g, x, y = Z.egcd a b in
      Z.equal (Z.add (Z.mul a x) (Z.mul b y)) g
      && Z.sign g >= 0
      && Z.equal g (Z.gcd a b)
      && (Z.is_zero g || (Z.is_zero (Z.rem a g) && Z.is_zero (Z.rem b g))))

let small_primes = [ 3; 5; 7; 11; 13; 17; 19; 23; 29 ]

let t_crt = R.test ~count:200 ~name:"crt reconstructs all residues"
    (R.arbitrary
       ~print:(fun pairs ->
         String.concat "; "
           (List.map (fun (r, m) -> Printf.sprintf "%d mod %d" r m) pairs))
       (Gen.bind (Gen.subset small_primes) (fun ms ->
            fun d -> List.map (fun m -> (Gen.int_below m d, m)) ms)))
    (fun pairs ->
      let x = Z.crt (List.map (fun (r, m) -> (Z.of_int r, Z.of_int m)) pairs) in
      let prod = List.fold_left (fun acc (_, m) -> Z.mul_int acc m) Z.one pairs in
      Z.sign x >= 0 && Z.lt x prod
      && List.for_all (fun (r, m) -> Z.equal (Z.erem x (Z.of_int m)) (Z.of_int r)) pairs)

let odd_gen = Gen.map (fun z -> Z.succ (Z.mul_int (Z.abs z) 2)) (Gen.bigint ~bits:96 ())

let t_jacobi_mult = R.test ~count:200 ~name:"jacobi is multiplicative in a"
    (R.arbitrary
       ~print:(fun ((a, b), n) ->
         Printf.sprintf "((%s, %s) / %s)" (Z.to_string a) (Z.to_string b) (Z.to_string n))
       (Gen.pair (Gen.pair (Gen.bigint ()) (Gen.bigint ())) odd_gen))
    (fun ((a, b), n) -> Z.jacobi (Z.mul a b) n = Z.jacobi a n * Z.jacobi b n)

let t_jacobi_square = R.test ~count:200 ~name:"jacobi of a unit square is 1"
    (R.arbitrary ~print:pair_print (Gen.pair (Gen.bigint ()) odd_gen))
    (fun (a, n) ->
      if Z.equal n Z.one then raise R.Discard;
      if not (Z.equal (Z.gcd a n) Z.one) then raise R.Discard;
      Z.jacobi (Z.mul a a) n = 1)

let p3_primes =
  List.map Z.of_string
    [ "19"; "23"; "10007"; "1073741827"; "170141183460469231731687303715884105727" ]

let t_sqrtm = R.test ~count:150 ~name:"sqrtm_p3 inverts squaring mod p"
    (R.arbitrary
       ~print:(fun (a, p) -> Printf.sprintf "(%s mod %s)" (Z.to_string a) (Z.to_string p))
       (Gen.pair (Gen.bigint ()) (Gen.oneofl p3_primes)))
    (fun (a, p) ->
      let sq = Z.mulm a a p in
      match Z.sqrtm_p3 sq p with
      | None -> false (* a square must have a root *)
      | Some s -> Z.equal (Z.mulm s s p) sq)

let t_random_below = R.test ~count:150 ~name:"random_below stays in range"
    (R.arbitrary
       ~print:(fun (seed, bound) -> Printf.sprintf "(%S, %s)" seed (Z.to_string bound))
       (Gen.pair (Gen.bytes ()) (Gen.map Z.succ (Gen.bigint ~bits:128 ()))))
    (fun (seed, bound) ->
      let drbg = Sagma_crypto.Drbg.create ("rb|" ^ seed) in
      let v = Z.random_below (Sagma_crypto.Drbg.rng drbg) bound in
      Z.sign v >= 0 && Z.lt v bound)

(* --- division edge cases (example-based) --------------------------------------

   base = 2^26, h = base/2 = 2^25 in the limb representation of
   lib/bigint/nat.ml. *)

let check_div name a b expect_q expect_r ok =
  let q, r = Z.divmod a b in
  let good = Z.equal q (Z.of_string expect_q) && Z.equal r (Z.of_string expect_r) in
  if not good then begin
    Printf.printf "    %s: got q=%s r=%s\n" name (Z.to_string q) (Z.to_string r);
    false
  end
  else ok

let t_division_edges = R.test ~count:1 ~name:"division edge cases (pinned)"
    (R.arbitrary (Gen.return ()))
    (fun () ->
      let h = Z.shift_left Z.one 25 in
      let b26 k = Z.shift_left Z.one (26 * k) in
      (* Knuth add-back path: u limbs [0;0;h;h-1], v limbs [1;0;h]
         (verified to take the add-back branch under instrumentation). *)
      let u_ab = Z.add (Z.mul (Z.pred h) (b26 3)) (Z.mul h (b26 2)) in
      let v_ab = Z.succ (Z.mul h (b26 2)) in
      let ok = true in
      let ok =
        check_div "add-back (constructed)" u_ab v_ab "67108862" "151115727451828579729410" ok
      in
      (* Add-back triggers found by randomized instrumented search. *)
      let ok =
        check_div "add-back (regression 1)"
          (Z.of_string "860154662807894091006392077659940773857")
          (Z.of_string "190992702277602406812716")
          "4503599627370495" "1737490931559437" ok
      in
      let ok =
        check_div "add-back (regression 2)"
          (Z.of_string "1155266868427494970952508542643159652342")
          (Z.of_string "256520783027876377925440")
          "4503599493152767" "976214703959862" ok
      in
      (* Divisor whose high limb has its top bit set (no normalize shift):
         u limbs [0;b-2;h], v limbs [b-1;h]. *)
      let u_hi = Z.add (Z.mul h (b26 2)) (Z.mul (Z.sub (b26 1) Z.two) (b26 1)) in
      let v_hi = Z.add (Z.mul h (b26 1)) (Z.pred (b26 1)) in
      let ok = check_div "high-limb divisor" u_hi v_hi "67108863" "2251799813685247" ok in
      (* Negative operands: truncated division, remainder takes the
         dividend's sign (OCaml's / and mod semantics). *)
      let ok = check_div "(-7) / 3" (Z.of_int (-7)) (Z.of_int 3) "-2" "-1" ok in
      let ok = check_div "7 / (-3)" (Z.of_int 7) (Z.of_int (-3)) "-2" "1" ok in
      let ok = check_div "(-7) / (-3)" (Z.of_int (-7)) (Z.of_int (-3)) "2" "-1" ok in
      let ok = check_div "(-6) / 3 (exact)" (Z.of_int (-6)) (Z.of_int 3) "-2" "0" ok in
      (* Single-limb divisor fast path at its bounds. *)
      let ok =
        check_div "single-limb divisor (exact)" (Z.pred (b26 4)) (Z.pred (b26 1))
          "302231459407256988155905" "0" ok
      in
      let ok =
        check_div "single-limb divisor (rem 1)" (b26 4) (Z.pred (b26 1))
          "302231459407256988155905" "1" ok
      in
      ok)

let () =
  R.run ~suite:"test_prop_bigint"
    [ t_add_comm; t_add_assoc; t_mul_comm; t_mul_assoc; t_distrib; t_add_sub; t_neg; t_mul_int;
      t_divmod; t_ediv; t_divmod_native; t_string_rt; t_hex_rt; t_bytes_rt; t_shift; t_num_bits;
      t_powm_iter; t_powm_add; t_invm; t_invm_batch; t_mont; t_mont_powm; t_egcd; t_crt; t_jacobi_mult;
      t_jacobi_square; t_sqrtm;
      t_random_below; t_division_edges ]
