(* Left-or-right IND-CPA over byte-level schemes.

   The distinguishing feature is the low bit of the ciphertext's last
   byte: for BGN that is the parity of the point's y-coordinate, for
   Paillier the parity of c mod n² — a fair coin under fresh blinding.
   The leaky mutants overwrite exactly that bit with the plaintext's low
   bit, so the same adversary that draws ~1/2 against the real schemes
   wins ~every trial against them. *)

module Drbg = Sagma_crypto.Drbg
module Z = Sagma_bigint.Bigint
module Bgn = Sagma_bgn.Bgn
module Paillier = Sagma_paillier.Paillier
module W = Sagma_wire.Wire

type scheme = {
  name : string;
  setup : Drbg.t -> (Drbg.t -> int -> string);
      (* key generation, then an encryptor to ciphertext bytes *)
}

(* Key sizes match the repository's test defaults: far below the
   paper's 1024-bit production setting, large enough that ciphertext
   bytes carry no small-modulus artifacts. *)
let bgn_bits = 64
let paillier_bits = 256

let bgn : scheme =
  { name = "ind-cpa-bgn";
    setup =
      (fun d ->
        let kp = Bgn.keygen ~bits:bgn_bits d in
        fun d m -> W.encode Sagma.Serialize.put_point (Bgn.enc1_int kp.Bgn.pk d m)) }

let paillier : scheme =
  { name = "ind-cpa-paillier";
    setup =
      (fun d ->
        let kp = Paillier.keygen ~bits:paillier_bits d in
        fun d m -> Z.to_bytes_be (Paillier.encrypt_int kp.Paillier.pk d m)) }

(* The mutation: honest encryption, then the plaintext's low bit copied
   over the ciphertext's last bit — the "stubbed encryption leaking a
   plaintext bit" the games harness must catch. *)
let leak_bit (m : int) (ct : string) : string =
  if ct = "" then String.make 1 (Char.chr (m land 1))
  else begin
    let b = Bytes.of_string ct in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr ((Char.code (Bytes.get b last) land 0xfe) lor (m land 1)));
    Bytes.to_string b
  end

let leaky (s : scheme) : scheme =
  { name = s.name ^ "-leaky";
    setup =
      (fun d ->
        let enc = s.setup d in
        fun d m -> leak_bit m (enc d m)) }

let leaky_bgn = leaky bgn
let leaky_paillier = leaky paillier

(* The built-in adversary: challenge on (0, 1), one extra probe (which
   must be visible in the oracle transcript), guess from the feature
   bit. *)
let feature (ct : string) : bool =
  ct <> "" && Char.code ct.[String.length ct - 1] land 1 = 1

let game ?trials ?confidence (s : scheme) ~(seed : string) : Game.outcome =
  (* Key generation is per-game (deterministic from the game seed), not
     per-trial: the IND-CPA experiment fixes one key and gives the
     adversary oracle access under it. *)
  let enc = s.setup (Drbg.create (s.name ^ "|" ^ seed ^ "|setup")) in
  Game.play ?trials ?confidence ~name:s.name ~seed (fun d ->
      let b = Drbg.bool d in
      let lr =
        Oracle.make ~name:(s.name ^ ".lr") ~budget:8 (fun (m0, m1) ->
            enc d (if b then m1 else m0))
      in
      (* Adversary: one challenge query, one decoy probe. *)
      let challenge = Oracle.call lr (0, 1) in
      ignore (Oracle.call lr (7, 7));
      let guess = feature challenge in
      (* Oracle hygiene: the challenge really went through the recorded
         path and the budget held. An adversary that cheats forfeits. *)
      if Oracle.count lr <> 2 || not (Oracle.queried lr (fun q -> q = (0, 1))) then false
      else guess = b)
