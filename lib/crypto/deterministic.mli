(** Deterministic authenticated encryption (SIV construction).

    Equal plaintexts yield equal ciphertexts — the property CryptDB's DET
    layer relies on for server-side grouping, and exactly the frequency
    leakage the SAGMA paper eliminates. Used here by the baselines. *)

type key

val gen_key : Drbg.t -> key

val encrypt : key -> string -> string
(** [encrypt k m] is [tag ‖ ct] with [tag = HMAC(m)] as synthetic IV. *)

val decrypt : key -> string -> string option
(** [None] when authentication fails. *)
