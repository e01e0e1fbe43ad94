(** Composable random-value generators over {!Sagma_crypto.Drbg}.

    A generator is a function of the DRBG, so the same seed always
    produces the same value — the property runner ({!Runner}) relies on
    this to make every failure replayable from its printed seed. *)

module Drbg = Sagma_crypto.Drbg
module Z = Sagma_bigint.Bigint

type 'a t = Drbg.t -> 'a

(** {1 Combinators} *)

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** {1 Scalars} *)

val bool : bool t

val int_range : int -> int -> int t
(** Uniform in [\[lo, hi\]]. *)

val int_below : int -> int t

val size : ?lo:int -> hi:int -> unit -> int t
(** Log-uniform in [\[lo, hi\]]: favors small sizes while still reaching
    [hi]. *)

val int_edgy : int -> int -> int t
(** Like {!int_range} but returns the exact bounds with elevated
    probability — integer properties live or die at the edges. *)

val oneofl : 'a list -> 'a t
val oneof : 'a t list -> 'a t
val frequency : (int * 'a t) list -> 'a t

(** {1 Structures} *)

val list : ?max_len:int -> 'a t -> 'a list t

val bytes_size : int t -> string t
val bytes : ?max_len:int -> unit -> string t
(** Arbitrary bytes, including NUL and non-ASCII. *)

val shuffle : 'a list -> 'a list t
val subset : 'a list -> 'a list t
(** Non-empty subset, preserving order. *)

(** {1 Bigints} *)

val bigint_bits : int -> Z.t t
val bigint_below : Z.t -> Z.t t

val bigint : ?bits:int -> unit -> Z.t t
(** Mixes uniform values (up to [bits], default 192), limb-boundary
    values and the small constants 0, 1, 2. *)

val bigint_signed : ?bits:int -> unit -> Z.t t
val bigint_nonzero : ?bits:int -> unit -> Z.t t
