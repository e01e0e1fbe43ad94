(** Typed cell values for the relational substrate. *)

type ty = TInt | TStr

type t =
  | Int of int
  | Str of string

val ty_of : t -> ty

val compare : t -> t -> int
(** Total order: all [Int]s before all [Str]s. *)

val equal : t -> t -> bool
val to_string : t -> string

val encode : t -> string
(** Canonical keyword encoding for PRF/SSE inputs; the type tag prevents
    [Int 1]/[Str "1"] collisions. *)

val parse : ty -> string -> t
(** @raise Failure on malformed integers. *)

val as_int : t -> int
(** @raise Invalid_argument on strings. *)
