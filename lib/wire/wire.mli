(** Binary serialization combinators.

    Canonical encoding — big-endian fixed-width words and length-prefixed
    byte strings — so every codec is deterministic and roundtrips
    byte-identically. *)

exception Decode_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Decode_error} with a formatted message. *)

(** {1 Sinks (encoding)} *)

type sink

val sink : unit -> sink
val contents : sink -> string

val put_u8 : sink -> int -> unit
val put_u32 : sink -> int -> unit
val put_u62 : sink -> int -> unit
(** Non-negative native int as 8 bytes. *)

val put_int : sink -> int -> unit
(** Signed native int ([min_int] excluded). *)

val put_bool : sink -> bool -> unit

val put_f64 : sink -> float -> unit
(** IEEE-754 double as its 8 raw bits, big-endian — bit-exact roundtrip
    (infinities and NaN payloads included). *)

val put_bytes : sink -> string -> unit
val put_list : sink -> (sink -> 'a -> unit) -> 'a list -> unit
val put_array : sink -> (sink -> 'a -> unit) -> 'a array -> unit
val put_option : sink -> (sink -> 'a -> unit) -> 'a option -> unit
val put_pair : sink -> (sink -> 'a -> unit) -> (sink -> 'b -> unit) -> 'a * 'b -> unit

(** {1 Sources (decoding)}

    All getters raise {!Decode_error} on malformed or truncated input. *)

type source

val source : string -> source

val get_u8 : source -> int
val get_u32 : source -> int
val get_u62 : source -> int
val get_int : source -> int
val get_bool : source -> bool
val get_f64 : source -> float
val get_bytes : source -> string
val get_list : source -> (source -> 'a) -> 'a list
val get_array : source -> (source -> 'a) -> 'a array
val get_option : source -> (source -> 'a) -> 'a option
val get_pair : source -> (source -> 'a) -> (source -> 'b) -> 'a * 'b

val expect_end : source -> unit
(** @raise Decode_error when bytes remain. *)

(** {1 Whole-value helpers} *)

val encode : (sink -> 'a -> unit) -> 'a -> string
val decode : (source -> 'a) -> string -> 'a
(** [decode get data] also checks the input is fully consumed. *)
