(** Authenticated symmetric encryption: ChaCha20 + HMAC-SHA256
    (encrypt-then-MAC). Wire format: nonce ‖ ciphertext ‖ tag. *)

type key

val gen_key : Drbg.t -> key

val seal : key -> Drbg.t -> string -> string
(** Encrypt with a fresh random nonce and authenticate. *)

val open_exn : key -> string -> string
(** Verify and decrypt.
    @raise Invalid_argument on authentication failure. *)

val open_opt : key -> string -> string option
