(** Baby-step/giant-step discrete logarithms, generic over the group.

    BGN decryption reduces to a discrete log with a known small bound.
    Tables are reusable across solves with the same base — one SAGMA
    query decrypts many aggregate components under one base.

    Any table solves any bound. A table built for [~max:b] holds
    s = ⌊√(b + 1)⌋ + 1 baby steps: s group operations and s hash
    entries to build. A solve for bound m walks at most ⌊m / s⌋ + 1
    giant steps, one group operation and one lookup each, whatever b
    was. A table built for k times the bound its solves use costs √k
    times as much to build and hold, and cuts each solve's giant steps
    by √k; one built for less still answers correctly, with more giant
    steps. *)

type 'a ops = {
  mul : 'a -> 'a -> 'a;
  inv : 'a -> 'a;
  one : 'a;
  serialize : 'a -> string;  (** injective encoding for table keys *)
}

type 'a table

val make : 'a ops -> 'a -> max:int -> 'a table
(** [make ops base ~max] prepares a table whose stride suits exponents
    in [\[0, max\]]. Bumps [bgn.dlog.table_builds]. *)

val solve : 'a table -> 'a -> max:int -> int option
(** [solve t target ~max] finds x ∈ [\[0, max\]] with base^x = target,
    for any [max], whatever bound [t] was built for. *)

val resize : 'a table -> max:int -> 'a table
(** [resize t ~max] is [make] over [t]'s operations and base: a
    table for a new bound without deriving the base again. *)
