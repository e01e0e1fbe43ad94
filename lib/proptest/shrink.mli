(** Counterexample shrinking: a shrinker maps a failing value to a
    finite sequence of smaller candidates; the runner recurses on the
    first candidate that still fails the property. *)

module Z = Sagma_bigint.Bigint

type 'a t = 'a -> 'a Seq.t

val nothing : 'a t

val int : int t
(** Halving walk toward zero. *)

val bigint : Z.t t
val option : 'a t -> 'a option t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val list : ?shrink_elt:'a t -> unit -> 'a list t
(** Drops element chunks (halves, quarters, …, singletons), then shrinks
    elements in place. *)

val string : string t
