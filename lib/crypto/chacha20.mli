(** The ChaCha20 stream cipher (RFC 8439). *)

val key_size : int
(** 32 bytes. *)

val nonce_size : int
(** 12 bytes. *)

val block : key:string -> nonce:string -> int -> string
(** [block ~key ~nonce counter] is one 64-byte keystream block. *)

val encrypt : ?counter:int -> key:string -> nonce:string -> string -> string
val decrypt : ?counter:int -> key:string -> nonce:string -> string -> string
