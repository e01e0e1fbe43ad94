(* Deterministic random byte generator built on the ChaCha20 keystream.

   Every randomized component in this repository (key generation, dummy
   rows, workload synthesis) draws from a [Drbg.t] seeded explicitly, so
   entire experiments are reproducible from their seeds. *)

type t = {
  key : string;            (* 32-byte ChaCha20 key derived from the seed *)
  nonce : string;          (* fixed 12-byte stream nonce *)
  mutable counter : int;   (* next keystream block *)
  mutable buf : string;    (* unconsumed keystream *)
  mutable pos : int;
}

(* [create seed] derives an independent stream for every distinct seed. *)
let create (seed : string) : t =
  let okm = Hmac.hkdf ~salt:"sagma-drbg-v1" ~ikm:seed (Chacha20.key_size + Chacha20.nonce_size) in
  { key = String.sub okm 0 Chacha20.key_size;
    nonce = String.sub okm Chacha20.key_size Chacha20.nonce_size;
    counter = 0;
    buf = "";
    pos = 0 }

let of_int_seed (seed : int) : t = create (Printf.sprintf "int-seed:%d" seed)

(* [bytes t n] returns the next [n] bytes of the stream. *)
let bytes (t : t) (n : int) : string =
  let out = Buffer.create n in
  let rec fill need =
    if need > 0 then begin
      if t.pos >= String.length t.buf then begin
        t.buf <- Chacha20.block ~key:t.key ~nonce:t.nonce t.counter;
        t.counter <- t.counter + 1;
        t.pos <- 0
      end;
      let take = min need (String.length t.buf - t.pos) in
      Buffer.add_substring out t.buf t.pos take;
      t.pos <- t.pos + take;
      fill (need - take)
    end
  in
  fill n;
  Buffer.contents out

(* Adapter for {!Sagma_bigint.Bigint.rng}. *)
let rng (t : t) : int -> string = fun n -> bytes t n

(* Uniform int in [0, bound) by rejection sampling over 62-bit chunks. *)
let int_below (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Drbg.int_below: bound <= 0";
  let limit = max_int - (max_int mod bound) in
  let rec go () =
    let raw = bytes t 8 in
    let v = ref 0 in
    String.iter (fun c -> v := ((!v lsl 8) lor Char.code c) land max_int) raw;
    if !v < limit then !v mod bound else go ()
  in
  go ()

let int_range (t : t) (lo : int) (hi : int) : int =
  if hi < lo then invalid_arg "Drbg.int_range";
  lo + int_below t (hi - lo + 1)

let bool (t : t) : bool = Char.code (bytes t 1).[0] land 1 = 1


(* Fisher–Yates shuffle (in place). *)
let shuffle (t : t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
