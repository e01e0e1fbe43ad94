(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869). *)

val tag_size : int
(** MAC tag size, 32 bytes. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]
    (keys longer than one block are hashed first, per the RFC). *)

val verify : key:string -> string -> string -> bool
(** [verify ~key msg tag] checks the tag in constant time. *)

val hkdf : ?salt:string -> ?info:string -> ikm:string -> int -> string
(** [hkdf ~salt ~info ~ikm len] is HKDF-Extract-then-Expand producing
    [len <= 255 * 32] output bytes. *)
