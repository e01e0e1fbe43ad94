(* The quadratic extension F_p² = F_p[i]/(i² + 1), for p ≡ 3 (mod 4).

   Elements are [a + b·i] with [a], [b] reduced mod p. The pairing target
   group G_T lives here. *)

module Z = Sagma_bigint.Bigint

type t = { re : Z.t; im : Z.t }

let make ~p re im = { re = Z.erem re p; im = Z.erem im p }

let zero = { re = Z.zero; im = Z.zero }
let one = { re = Z.one; im = Z.zero }

let equal a b = Z.equal a.re b.re && Z.equal a.im b.im
let is_one a = Z.equal a.re Z.one && Z.is_zero a.im

(* (a + bi)(c + di) = (ac − bd) + (ad + bc)i *)
let mul ~p a b =
  let ac = Z.mul a.re b.re and bd = Z.mul a.im b.im in
  let ad = Z.mul a.re b.im and bc = Z.mul a.im b.re in
  { re = Z.erem (Z.sub ac bd) p; im = Z.erem (Z.add ad bc) p }

let sqr ~p a =
  (* (a + bi)² = (a−b)(a+b) + 2ab·i *)
  let re = Z.mul (Z.sub a.re a.im) (Z.add a.re a.im) in
  let im = Z.shift_left (Z.mul a.re a.im) 1 in
  { re = Z.erem re p; im = Z.erem im p }

let pow ~p (base : t) (e : Z.t) : t =
  if Z.sign e < 0 then invalid_arg "Fp2.pow: negative exponent";
  let nbits = Z.num_bits e in
  let acc = ref one and b = ref base in
  for i = 0 to nbits - 1 do
    if Z.bit e i then acc := mul ~p !acc !b;
    if i < nbits - 1 then b := sqr ~p !b
  done;
  !acc

(* Compact injective serialization. *)
let serialize a = Z.to_bytes_be a.re ^ "|" ^ Z.to_bytes_be a.im
