(** Baby-step/giant-step discrete logarithms, generic over the group.

    BGN decryption reduces to a discrete log with a known small bound.
    Tables cost O(√max) space/time to build and are reusable across
    solves with the same base — one SAGMA query decrypts many aggregate
    components under one base. *)

type 'a ops = {
  mul : 'a -> 'a -> 'a;
  inv : 'a -> 'a;
  one : 'a;
  serialize : 'a -> string;  (** injective encoding for table keys *)
}

type 'a table

val make : 'a ops -> 'a -> max:int -> 'a table
(** [make ops base ~max] prepares a table able to solve exponents in
    [\[0, max\]]. *)

val solve : 'a table -> 'a -> max:int -> int option
(** [solve t target ~max] finds x ∈ [\[0, max\]] with base^x = target. *)
