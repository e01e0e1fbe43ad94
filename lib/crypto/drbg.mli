(** Deterministic random byte generator (ChaCha20-based).

    Every randomized component in this repository draws from a [Drbg.t]
    seeded explicitly, so entire experiments are reproducible from their
    seeds. Generators are stateful; two generators with the same seed
    produce the same stream regardless of how reads are chunked. *)

type t

val create : string -> t
(** [create seed] derives an independent stream per distinct seed. *)

val of_int_seed : int -> t

val bytes : t -> int -> string
(** [bytes t n] returns the next [n] bytes of the stream. *)

val rng : t -> int -> string
(** Adapter matching {!Sagma_bigint.Bigint.rng}. *)

val int_below : t -> int -> int
(** Uniform in [\[0, bound)], rejection-sampled (no modulo bias). *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [\[lo, hi\]]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
