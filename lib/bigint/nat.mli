(** Unsigned arbitrary-precision naturals — the magnitude layer under
    {!Bigint}.

    Representation: little-endian [int array] of 26-bit limbs, normalized
    (no most-significant zero limbs); zero is [[||]]. 26-bit limbs keep
    every intermediate inside OCaml's 63-bit native integers. Exposed for
    white-box tests and the multiplication ablation. *)

type t = int array

val limb_bits : int
val base : int
val limb_mask : int

val zero : t
val is_zero : t -> bool
val normalize : t -> t

val of_int : int -> t
(** @raise Invalid_argument on negatives. *)

val to_int_opt : t -> int option

val compare : t -> t -> int

val num_bits : t -> int
val bit : t -> int -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument on underflow. *)

val mul_schoolbook : t -> t -> t
(** O(n²) multiplication (kept public for the Karatsuba ablation). *)

val mul : t -> t -> t
(** Schoolbook below 80 limbs, Karatsuba above. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** Knuth TAOCP Algorithm D. @raise Division_by_zero. *)

val rem : t -> t -> t

val to_string : t -> string
val of_string : string -> t
val to_hex : t -> string
val of_hex : string -> t
val of_bytes_be : string -> t
val to_bytes_be : t -> string
