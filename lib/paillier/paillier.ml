(* The Paillier cryptosystem (EUROCRYPT'99): additively homomorphic
   encryption over Z_n with ciphertexts in Z_{n²}.

   Used by the paper's §3.1/§3.2 static constructions (the packed shifted
   values fit Paillier's large plaintext space, and decryption is a direct
   computation, not a discrete log) and by the CryptDB baseline. *)

module Z = Sagma_bigint.Bigint
module Drbg = Sagma_crypto.Drbg

type public_key = {
  n : Z.t;       (* modulus *)
  n2 : Z.t;      (* n² *)
}

type secret_key = {
  lambda : Z.t;  (* lcm(p−1, q−1) *)
  mu : Z.t;      (* λ⁻¹ mod n *)
}

type keypair = { pk : public_key; sk : secret_key }

type ciphertext = Z.t

let plaintext_bits (pk : public_key) = Z.num_bits pk.n - 1

let keygen ~(bits : int) (drbg : Drbg.t) : keypair =
  if bits < 16 then invalid_arg "Paillier.keygen: modulus too small";
  let rng = Drbg.rng drbg in
  let half = bits / 2 in
  let p = Z.random_prime rng ~bits:half in
  let rec distinct () =
    let q = Z.random_prime rng ~bits:(bits - half) in
    if Z.equal p q then distinct () else q
  in
  let q = distinct () in
  let n = Z.mul p q in
  let n2 = Z.mul n n in
  let p1 = Z.pred p and q1 = Z.pred q in
  let lambda = Z.div (Z.mul p1 q1) (Z.gcd p1 q1) in
  let mu = Z.invm_exn lambda n in
  { pk = { n; n2 }; sk = { lambda; mu } }

(* Enc(m) = (1+n)^m · r^n mod n², with (1+n)^m = 1 + m·n mod n². *)
let encrypt (pk : public_key) (drbg : Drbg.t) (m : Z.t) : ciphertext =
  let m = Z.erem m pk.n in
  let rec invertible () =
    let r = Z.random_below (Drbg.rng drbg) pk.n in
    if Z.equal (Z.gcd r pk.n) Z.one && not (Z.is_zero r) then r else invertible ()
  in
  let r = invertible () in
  let gm = Z.erem (Z.succ (Z.mul m pk.n)) pk.n2 in
  Z.mulm gm (Z.powm r pk.n pk.n2) pk.n2

let encrypt_int pk drbg m = encrypt pk drbg (Z.of_int m)

(* L(u) = (u − 1) / n; Dec(c) = L(c^λ mod n²)·μ mod n. *)
let decrypt (kp : keypair) (c : ciphertext) : Z.t =
  let pk = kp.pk in
  let u = Z.powm c kp.sk.lambda pk.n2 in
  let l = Z.div (Z.pred u) pk.n in
  Z.mulm l kp.sk.mu pk.n

(* Homomorphic addition of plaintexts. *)
let add (pk : public_key) (a : ciphertext) (b : ciphertext) : ciphertext =
  Z.mulm a b pk.n2

(* Multiplication of the plaintext by a (possibly large) scalar. *)
let smul (pk : public_key) (k : Z.t) (a : ciphertext) : ciphertext =
  Z.powm a (Z.erem k pk.n) pk.n2

let zero (pk : public_key) (drbg : Drbg.t) : ciphertext = encrypt pk drbg Z.zero
