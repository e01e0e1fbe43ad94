(* Signed arbitrary-precision integers on top of {!Nat} magnitudes. *)

type t = { sign : int; mag : Nat.t }
(* Invariant: sign ∈ {-1, 0, 1}; sign = 0 iff mag is zero. *)

let mk sign mag = if Nat.is_zero mag then { sign = 0; mag = Nat.zero } else { sign; mag }

let zero = { sign = 0; mag = Nat.zero }
let one = { sign = 1; mag = Nat.of_int 1 }
let two = { sign = 1; mag = Nat.of_int 2 }
let minus_one = { sign = -1; mag = Nat.of_int 1 }

let of_int x =
  if x = 0 then zero
  else if x > 0 then { sign = 1; mag = Nat.of_int x }
  else { sign = -1; mag = Nat.of_int (-x) }
  (* min_int would overflow on negation, but no caller builds it. *)

let to_int_opt a =
  match Nat.to_int_opt a.mag with
  | None -> None
  | Some v -> if a.sign >= 0 then Some v else Some (-v)

let to_int_exn a =
  match to_int_opt a with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: out of range"

let sign a = a.sign
let is_zero a = a.sign = 0
let is_even a = a.sign = 0 || not (Nat.bit a.mag 0)
let is_odd a = not (is_even a)
let neg a = mk (-a.sign) a.mag
let abs a = mk (if a.sign = 0 then 0 else 1) a.mag

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then mk a.sign (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (Nat.sub a.mag b.mag)
    else mk b.sign (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else mk (a.sign * b.sign) (Nat.mul a.mag b.mag)

let mul_int a x = mul a (of_int x)

(* Truncated division (rounds toward zero), like OCaml's [/] and [mod]:
   the remainder carries the sign of the dividend. *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  (mk (a.sign * b.sign) q, mk a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Euclidean division: remainder is always in [0, |b|). *)
let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let erem a b = snd (ediv_rem a b)

let shift_left a k = mk a.sign (Nat.shift_left a.mag k)
let shift_right a k = mk a.sign (Nat.shift_right a.mag k)
  (* Arithmetic shift of the magnitude; only used on non-negative values. *)

let num_bits a = Nat.num_bits a.mag
let bit a i = Nat.bit a.mag i

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let to_string a = if a.sign < 0 then "-" ^ Nat.to_string a.mag else Nat.to_string a.mag

let of_string s =
  if String.length s = 0 then invalid_arg "Bigint.of_string: empty";
  if s.[0] = '-' then mk (-1) (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else if s.[0] = '+' then mk 1 (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else mk 1 (Nat.of_string s)

let to_hex a = if a.sign < 0 then "-" ^ Nat.to_hex a.mag else Nat.to_hex a.mag

let of_hex s =
  if String.length s > 0 && s.[0] = '-' then
    mk (-1) (Nat.of_hex (String.sub s 1 (String.length s - 1)))
  else mk 1 (Nat.of_hex s)

let of_bytes_be s = mk 1 (Nat.of_bytes_be s)
let to_bytes_be a = Nat.to_bytes_be a.mag

(* --- modular arithmetic ------------------------------------------------ *)

(* All modular functions require m > 0 and reduce inputs with [erem]. *)

let addm a b m = erem (add a b) m
let subm a b m = erem (sub a b) m
let mulm a b m = erem (mul a b) m

(* Right-to-left square-and-multiply with [mulm]: the path for small or
   even moduli, and the reference the windowed Montgomery power is
   tested against. *)
let powm_binary base expo m =
  let nbits = num_bits expo in
  let b = ref (erem base m) and acc = ref one in
  for i = 0 to nbits - 1 do
    if bit expo i then acc := mulm !acc !b m;
    if i < nbits - 1 then b := mulm !b !b m
  done;
  if equal m one then zero else !acc

(* Montgomery pays off once the modulus clears a few limbs and there are
   enough squarings to amortize the context setup. Moduli wider than
   [Montgomery.max_limbs] stay on the binary path. *)
let montgomery_threshold_bits = 96

let m_powm = Sagma_obs.Metrics.counter "bigint.powm"
let m_invm = Sagma_obs.Metrics.counter "bigint.invm"
let m_invm_batch = Sagma_obs.Metrics.counter "bigint.invm_batch"

let powm base expo m =
  if m.sign <= 0 then invalid_arg "Bigint.powm: modulus <= 0";
  if expo.sign < 0 then invalid_arg "Bigint.powm: negative exponent";
  Sagma_obs.Metrics.incr m_powm;
  if
    is_odd m
    && num_bits m >= montgomery_threshold_bits
    && Array.length m.mag <= Montgomery.max_limbs
    && num_bits expo > 4
  then begin
    let ctx = Montgomery.make m.mag in
    mk 1 (Montgomery.powm ctx (erem base m).mag expo.mag)
  end
  else powm_binary base expo m

(* Extended gcd: returns (g, x, y) with a*x + b*y = g, g >= 0. *)
let egcd a b =
  let rec go r0 r1 s0 s1 t0 t1 =
    if is_zero r1 then (r0, s0, t0)
    else begin
      let q, r = divmod r0 r1 in
      go r1 r s1 (sub s0 (mul q s1)) t1 (sub t0 (mul q t1))
    end
  in
  let g, x, y = go a b one zero zero one in
  if g.sign < 0 then (neg g, neg x, neg y) else (g, x, y)

let gcd a b =
  let g, _, _ = egcd a b in
  g

(* Dedicated inverse: like egcd but tracks only the coefficient of [a],
   saving a third of the work on this very hot path (curve arithmetic
   performs one inversion per affine point operation). *)
let invm a m =
  Sagma_obs.Metrics.incr m_invm;
  let rec go r0 r1 s0 s1 =
    if is_zero r1 then (r0, s0)
    else begin
      let q, r = divmod r0 r1 in
      go r1 r s1 (sub s0 (mul q s1))
    end
  in
  let g, x = go (erem a m) m one zero in
  if not (equal g one) then None else Some (erem x m)

let invm_exn a m =
  match invm a m with
  | Some x -> x
  | None -> failwith "Bigint.invm_exn: not invertible"

(* Montgomery's trick: invert n residues with one egcd and 3(n-1)
   modular multiplications. Prefix products first, then one inversion
   of the total product, then back-substitution. Every element must be
   invertible mod [m]; raises like {!invm_exn} otherwise. *)
let invm_batch (xs : t array) (m : t) : t array =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    Sagma_obs.Metrics.incr m_invm_batch;
    let prefix = Array.make n zero in
    let acc = ref one in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      acc := mulm !acc xs.(i) m
    done;
    let inv = ref (invm_exn !acc m) in
    let out = Array.make n zero in
    for i = n - 1 downto 0 do
      out.(i) <- mulm !inv prefix.(i) m;
      inv := mulm !inv xs.(i) m
    done;
    out
  end

(* Montgomery-form residues for inner loops that cannot afford the
   division hiding in [mulm]. The pairing layer keeps its whole Miller
   loop in this form; conversion in/out happens once per batch. *)
module Mont = struct
  type ctx = { m : t; mctx : Montgomery.ctx }
  type el = int array

  let make (m : t) : ctx =
    if m.sign <= 0 then invalid_arg "Bigint.Mont.make: modulus <= 0";
    { m; mctx = Montgomery.make m.mag }

  let of_z (c : ctx) (a : t) : el = Montgomery.to_mont c.mctx (erem a c.m).mag
  let to_z (c : ctx) (a : el) : t = mk 1 (Montgomery.of_mont c.mctx a)
  let one (c : ctx) : el = Montgomery.one c.mctx
  let zero (c : ctx) : el = Array.make (Array.length (Montgomery.one c.mctx)) 0
  let mul (c : ctx) (a : el) (b : el) : el = Montgomery.mont_mul c.mctx a b
  let pow (c : ctx) (a : el) (e : t) : el = Montgomery.pow_mont c.mctx a e.mag
  let add (c : ctx) (a : el) (b : el) : el = Montgomery.add c.mctx a b
  let sub (c : ctx) (a : el) (b : el) : el = Montgomery.sub c.mctx a b
  let is_zero (a : el) : bool = Array.for_all (fun l -> l = 0) a
  let equal (a : el) (b : el) : bool = a = b
  let limbs (a : el) : int array = a
end

(* Jacobi symbol (a/n) for odd positive n. *)
let jacobi a n =
  if n.sign <= 0 || is_even n then invalid_arg "Bigint.jacobi: n must be odd positive";
  let rec go a n acc =
    let a = erem a n in
    if is_zero a then (if equal n one then acc else 0)
    else begin
      (* Pull out factors of two. *)
      let rec twos a acc =
        if is_even a then begin
          let nmod8 = to_int_exn (erem n (of_int 8)) in
          let acc = if nmod8 = 3 || nmod8 = 5 then -acc else acc in
          twos (shift_right a 1) acc
        end else (a, acc)
      in
      let a, acc = twos a acc in
      if equal a one then acc
      else begin
        (* Quadratic reciprocity. *)
        let amod4 = to_int_exn (erem a (of_int 4)) in
        let nmod4 = to_int_exn (erem n (of_int 4)) in
        let acc = if amod4 = 3 && nmod4 = 3 then -acc else acc in
        go n a acc
      end
    end
  in
  go a n 1

(* Square root mod a prime p with p ≡ 3 (mod 4): a^((p+1)/4). *)
let sqrtm_p3 a p =
  if to_int_exn (erem p (of_int 4)) <> 3 then invalid_arg "Bigint.sqrtm_p3: p mod 4 <> 3";
  let r = powm a (shift_right (succ p) 2) p in
  if equal (mulm r r p) (erem a p) then Some r else None

(* CRT recombination for pairwise-coprime moduli. *)
let crt (pairs : (t * t) list) : t =
  match pairs with
  | [] -> invalid_arg "Bigint.crt: empty"
  | (r0, m0) :: rest ->
    List.fold_left
      (fun (r, m) (r', m') ->
        (* Find x ≡ r (mod m), x ≡ r' (mod m'). *)
        let inv = invm_exn m m' in
        let diff = erem (sub r' r) m' in
        let k = mulm diff inv m' in
        (add r (mul k m), mul m m'))
      (erem r0 m0, m0) rest
    |> fst

(* --- randomness and primality ------------------------------------------ *)

type rng = int -> string
(* [rng n] returns [n] uniformly random bytes. *)

let random_bits (rng : rng) (bits : int) : t =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let raw = rng nbytes in
    let v = of_bytes_be raw in
    (* Trim excess high bits. *)
    let excess = (nbytes * 8) - bits in
    shift_right v excess
  end

(* Uniform in [0, bound) by rejection sampling. *)
let random_below (rng : rng) (bound : t) : t =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound <= 0";
  let bits = num_bits bound in
  let rec go () =
    let v = random_bits rng bits in
    if lt v bound then v else go ()
  in
  go ()

(* |a| mod d for a native 0 < d < 2^26, one pass over the limbs. *)
let rem_int (a : t) (d : int) : int =
  if d <= 0 || d >= Nat.base then invalid_arg "Bigint.rem_int: divisor out of range";
  let r = ref 0 in
  for i = Array.length a.mag - 1 downto 0 do
    r := ((!r lsl Nat.limb_bits) lor a.mag.(i)) mod d
  done;
  !r

(* The sieve of Eratosthenes over a bitset: [f] sees every prime below
   [bound] in increasing order, and nothing else is allocated. *)
let iter_primes_below (bound : int) (f : int -> unit) : unit =
  let composite = Bytes.make ((max bound 0 + 7) / 8) '\000' in
  for i = 2 to bound - 1 do
    if Char.code (Bytes.get composite (i lsr 3)) land (1 lsl (i land 7)) = 0 then begin
      f i;
      let j = ref (i * i) in
      while !j < bound do
        let byte = !j lsr 3 in
        Bytes.set composite byte (Char.chr (Char.code (Bytes.get composite byte) lor (1 lsl (!j land 7))));
        j := !j + i
      done
    end
  done

let small_primes =
  let ps = ref [] in
  iter_primes_below 256 (fun p -> ps := p :: !ps);
  Array.of_list (List.rev !ps)

(* One Miller–Rabin round with base [a]; true = "probably prime". *)
let miller_rabin_round n a =
  let n1 = pred n in
  (* n - 1 = d * 2^s with d odd *)
  let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n1 0 in
  let x = powm a d n in
  if equal x one || equal x n1 then true
  else begin
    let rec loop x i =
      if i >= s - 1 then false
      else begin
        let x = mulm x x n in
        if equal x n1 then true else loop x (i + 1)
      end
    in
    loop x 0
  end

(* Random Miller–Rabin rounds after the fixed bases. *)
let mr_rounds = 32

let is_probable_prime (rng : rng) (n : t) : bool =
  if leq n one then false
  else if lt n (of_int 4) then true (* 2, 3 *)
  else if is_even n then false
  else begin
    let divisible_by_small =
      Array.exists (fun p -> lt (of_int p) n && rem_int n p = 0) small_primes
    in
    if divisible_by_small then false
    else begin
      (* Fixed small bases catch all composites below 3.3 * 10^24;
         random bases extend the guarantee probabilistically. *)
      let fixed = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ] in
      let fixed_ok =
        List.for_all
          (fun a ->
            let a = of_int a in
            geq a n || miller_rabin_round n a)
          fixed
      in
      if not fixed_ok then false
      else begin
        let rec random_rounds i =
          if i >= mr_rounds then true
          else begin
            let a = add (random_below rng (sub n (of_int 3))) two in
            if miller_rabin_round n a then random_rounds (i + 1) else false
          end
        in
        random_rounds 0
      end
    end
  end

let random_prime (rng : rng) ~(bits : int) : t =
  if bits < 2 then invalid_arg "Bigint.random_prime: bits < 2";
  let rec go () =
    let candidate = random_bits rng (bits - 1) in
    (* Force the top bit (exact size) and the bottom bit (odd). *)
    let candidate =
      add (shift_left one (bits - 1))
        (if is_even candidate then succ candidate else candidate)
    in
    let candidate = if num_bits candidate > bits then pred (shift_left one bits) else candidate in
    if is_probable_prime rng candidate then candidate else go ()
  in
  go ()

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = erem
  let ( = ) = equal
  let ( < ) = lt
  let ( <= ) = leq
  let ( > ) = gt
  let ( >= ) = geq
end
