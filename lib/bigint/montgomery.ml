(* Montgomery modular multiplication (product scanning) over 26-bit limbs.

   For an odd modulus n of k limbs, numbers are represented as
   x·R mod n with R = base^k. One Montgomery multiplication costs
   ~2k² limb products with no division — substantially faster than
   multiply-then-Knuth-divide for the exponentiation loads in this
   repository (Paillier over n², Miller–Rabin, F_p² final
   exponentiations). [Bigint.powm] dispatches here for large odd moduli;
   `bench ablation:montgomery` measures the gain.

   The product is scanned column by column: column i sums every
   a_j·b_{i−j} and m_j·n_{i−j} in one native int and carries once. A
   limb product is below 2^52, so a column of up to 2k products plus the
   incoming carry stays below 2^62 while k ≤ [max_limbs] = 511 limbs
   (13,286 bits); [make] refuses larger moduli. *)

type ctx = {
  n : Nat.t;           (* the modulus, odd, normalized *)
  k : int;             (* limb count of n *)
  n0_inv : int;        (* -n^{-1} mod base *)
  r2 : Nat.t;          (* R² mod n, for conversion into Montgomery form *)
  one_mont : Nat.t;    (* R mod n = Montgomery form of 1 *)
}

(* 2·511·(2^26 − 1)² + 2^36 < 2^62: the widest column, with its carry,
   fits a native int. *)
let max_limbs = 511

(* Inverse of an odd limb modulo 2^26 by Newton iteration. *)
let limb_inverse (n0 : int) : int =
  let x = ref 1 in
  for _ = 1 to 5 do
    x := !x * (2 - (n0 * !x)) land Nat.limb_mask
  done;
  !x land Nat.limb_mask

let make (n : Nat.t) : ctx =
  if Nat.is_zero n || n.(0) land 1 = 0 then invalid_arg "Montgomery.make: modulus must be odd";
  let k = Array.length n in
  if k > max_limbs then invalid_arg "Montgomery.make: modulus wider than max_limbs";
  let n0_inv = Nat.limb_mask land (Nat.base - limb_inverse n.(0)) in
  (* R² mod n via shifting (no division beyond Nat.rem). *)
  let r = Nat.rem (Nat.shift_left (Nat.of_int 1) (k * Nat.limb_bits)) n in
  let r2 = Nat.rem (Nat.mul r r) n in
  { n; k; n0_inv; r2; one_mont = r }

(* Product-scanning Montgomery multiplication: returns a·b·R⁻¹ mod n.
   Operands are k-limb arrays (zero-padded, < n); the result is a fresh
   k-limb array. The quotient digits m_j share [t] with the result:
   column k + j writes result limb j after the last read of m_j. *)
let mont_mul (c : ctx) (a : int array) (b : int array) : int array =
  let k = c.k and n = c.n and n0_inv = c.n0_inv in
  if Array.length a <> k || Array.length b <> k then
    invalid_arg "Montgomery.mont_mul: operands must have k limbs";
  let t = Array.make k 0 in
  let carry = ref 0 in
  for i = 0 to k - 1 do
    let s = ref !carry in
    for j = 0 to i - 1 do
      s :=
        !s
        + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
        + (Array.unsafe_get t j * Array.unsafe_get n (i - j))
    done;
    let s = !s + (Array.unsafe_get a i * Array.unsafe_get b 0) in
    let m = (s land Nat.limb_mask) * n0_inv land Nat.limb_mask in
    Array.unsafe_set t i m;
    carry := (s + (m * Array.unsafe_get n 0)) lsr Nat.limb_bits
  done;
  for i = k to (2 * k) - 2 do
    let s = ref !carry in
    for j = i - k + 1 to k - 1 do
      s :=
        !s
        + (Array.unsafe_get a j * Array.unsafe_get b (i - j))
        + (Array.unsafe_get t j * Array.unsafe_get n (i - j))
    done;
    Array.unsafe_set t (i - k) (!s land Nat.limb_mask);
    carry := !s lsr Nat.limb_bits
  done;
  Array.unsafe_set t (k - 1) (!carry land Nat.limb_mask);
  let top = !carry lsr Nat.limb_bits in
  (* t + top·R < 2n: one conditional subtraction; its final borrow
     cancels [top]. *)
  let ge =
    top > 0
    ||
    let rec cmp i =
      if i < 0 then true
      else
        let ti = Array.unsafe_get t i and ni = Array.unsafe_get n i in
        if ti <> ni then ti > ni else cmp (i - 1)
    in
    cmp (k - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = Array.unsafe_get t j - Array.unsafe_get n j - !borrow in
      Array.unsafe_set t j (d land Nat.limb_mask);
      borrow := (d lsr Nat.limb_bits) land 1
    done
  end;
  t

let pad (c : ctx) (a : Nat.t) : int array =
  let out = Array.make c.k 0 in
  Array.blit a 0 out 0 (Array.length a);
  out

(* Modular addition/subtraction on k-limb padded residues (< n).
   Montgomery form is linear, so these work unchanged on Montgomery
   representatives; the pairing tower uses them between mont_muls. *)
let add (c : ctx) (a : int array) (b : int array) : int array =
  let k = c.k in
  let n = c.n in
  let out = Array.make k 0 in
  let carry = ref 0 in
  for j = 0 to k - 1 do
    let s = a.(j) + b.(j) + !carry in
    out.(j) <- s land Nat.limb_mask;
    carry := s lsr Nat.limb_bits
  done;
  let ge =
    !carry > 0
    ||
    let rec cmp i = if i < 0 then true else if out.(i) <> n.(i) then out.(i) > n.(i) else cmp (i - 1) in
    cmp (k - 1)
  in
  if ge then begin
    (* a + b < 2n, so one subtraction lands in [0, n); a final borrow
       just cancels the carry limb. *)
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = out.(j) - n.(j) - !borrow in
      if d < 0 then begin
        out.(j) <- d + Nat.base;
        borrow := 1
      end
      else begin
        out.(j) <- d;
        borrow := 0
      end
    done
  end;
  out

let sub (c : ctx) (a : int array) (b : int array) : int array =
  let k = c.k in
  let out = Array.make k 0 in
  let borrow = ref 0 in
  for j = 0 to k - 1 do
    let d = a.(j) - b.(j) - !borrow in
    if d < 0 then begin
      out.(j) <- d + Nat.base;
      borrow := 1
    end
    else begin
      out.(j) <- d;
      borrow := 0
    end
  done;
  if !borrow = 1 then begin
    let carry = ref 0 in
    for j = 0 to k - 1 do
      let s = out.(j) + c.n.(j) + !carry in
      out.(j) <- s land Nat.limb_mask;
      carry := s lsr Nat.limb_bits
    done
  end;
  out

let one (c : ctx) : int array = pad c c.one_mont

(* Convert into / out of Montgomery form. *)
let to_mont (c : ctx) (a : Nat.t) : int array = mont_mul c (pad c (Nat.rem a c.n)) (pad c c.r2)

let of_mont (c : ctx) (a : int array) : Nat.t =
  let one = Array.make c.k 0 in
  one.(0) <- 1;
  Nat.normalize (mont_mul c a one)

(* The window width of [pow_mont]: 2^4 − 2 products fill the table,
   then one product per nonzero 4-bit digit instead of one per set bit. *)
let window = 4

(* base^expo on a Montgomery-form base, result in Montgomery form:
   fixed 4-bit windows, most significant first. The top window starts
   the accumulator, so no squaring of one is spent. *)
let pow_mont (c : ctx) (base_m : int array) (expo : Nat.t) : int array =
  let nbits = Nat.num_bits expo in
  if nbits = 0 then pad c c.one_mont
  else begin
    let pows = Array.make (1 lsl window) (pad c c.one_mont) in
    pows.(1) <- base_m;
    for i = 2 to (1 lsl window) - 1 do
      pows.(i) <- mont_mul c pows.(i - 1) base_m
    done;
    let digit j =
      let d = ref 0 in
      for b = window - 1 downto 0 do
        d := (2 * !d) + if Nat.bit expo ((j * window) + b) then 1 else 0
      done;
      !d
    in
    let top = ((nbits + window - 1) / window) - 1 in
    let acc = ref pows.(digit top) in
    for j = top - 1 downto 0 do
      for _ = 1 to window do
        acc := mont_mul c !acc !acc
      done;
      let d = digit j in
      if d > 0 then acc := mont_mul c !acc pows.(d)
    done;
    !acc
  end

(* Modular exponentiation: base^expo mod n in Montgomery form. *)
let powm (c : ctx) (base : Nat.t) (expo : Nat.t) : Nat.t =
  of_mont c (pow_mont c (to_mont c base) expo)
