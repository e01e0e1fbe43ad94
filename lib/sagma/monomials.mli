(** The stored-monomial index (§3.4, §4.1).

    EncRow stores one BGN ciphertext per monomial x₁^{e₁}···x_l^{e_l}
    with e ∈ {0..B−1}^l, e ≠ 0 and |support(e)| ≤ t. Monomial reuse
    (Figure 2) falls out: a query over attributes Q touches exactly the
    vectors supported inside Q, and those same vectors serve every
    superset. m(l,t) = Σ_{i=1..t} C(l,i)(B−1)^i (§4.1, Table 9). *)

type t = {
  num_columns : int;
  bucket_size : int;
  threshold : int;
  vectors : int array array;        (** exponent vectors, storage order *)
  index : (string, int) Hashtbl.t;
}

val make : num_columns:int -> bucket_size:int -> threshold:int -> t

val count : t -> int

val count_formula : num_columns:int -> bucket_size:int -> threshold:int -> int
(** Closed form m(l,t). *)

val count_naive : num_columns:int -> bucket_size:int -> threshold:int -> int
(** The reuse-free naïve scheme's count (§4.1). *)

val position : t -> int array -> int
(** Storage position of an exponent vector.
    @raise Invalid_argument for unsupported vectors. *)

val eval_monomial : int array -> int array -> Sagma_bigint.Bigint.t
(** Plaintext value of monomial [e] on bucket offsets [xs]. *)

val lift_exponents : t -> query_columns:int array -> int array -> int array
(** Widen a query-local exponent vector to all l columns. *)
