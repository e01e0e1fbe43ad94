(** Storage and client-cost models (§4.1, §6.2 — Tables 9/10,
    Figure 8). All storage figures count ciphertexts, as the paper
    does. *)

val monomial_count : l:int -> t:int -> b:int -> int
(** m(l,t) = Σ C(l,i)(B−1)^i — monomials per row with reuse. *)

val monomial_increment : l:int -> t:int -> b:int -> int
(** Table 9's rows: m(l,t) − m(l,t−1) = C(l,t)(B−1)^t. *)

val monomial_count_naive : l:int -> t:int -> b:int -> int

(** {1 Table 10: server storage} *)

val precomputed_server : l:int -> t:int -> k:int -> n:int -> d:int -> int
val seabed_server : l:int -> t:int -> k:int -> r:int -> b:int -> int
val sagma_server : l:int -> t:int -> k:int -> r:int -> b:int -> int

(** {1 Table 10: client operations per query} *)

val precomputed_client : int
val seabed_client : rho:int -> t:int -> d:int -> int
val sagma_client : t:int -> d:int -> int

(** {1 Figure 8 sweeps} *)

type figure8_row = { x : int; precomputed : int; seabed : int; sagma : int }

val figure8a :
  ?l:int -> ?k:int -> ?r:int -> ?n:int -> ?b:int -> ?d:int -> unit -> figure8_row list
(** Storage vs threshold t (paper defaults l=4, k=2, r=1000, n=2). *)

val figure8b : ?l:int -> ?t:int -> ?k:int -> ?r:int -> ?n:int -> ?b:int -> unit -> figure8_row list
(** Storage vs domain size |D| at t=3. *)
