(** Shift polynomials over Z_n (§3.3–§3.4).

    The server derives each row's shift by evaluating a polynomial with
    public coefficients over the row's encrypted monomials. Unit-shift
    (Lagrange indicator) polynomials are the production path — they keep
    BGN's discrete-log decryption bounds tiny; the packed single
    polynomial of §3.3 is retained for the ablation. All arithmetic is
    mod n = q₁q₂ (Lagrange denominators, products of integers < B, are
    invertible). *)

module Z = Sagma_bigint.Bigint

val eval : n:Z.t -> Z.t array -> int -> Z.t
(** Horner evaluation (the tests' oracle). *)

val indicator : n:Z.t -> bucket_size:int -> int -> Z.t array
(** [indicator ~n ~bucket_size j] is I_j with I_j(x) = 1 iff x = j on the
    grid {0..B−1}; length-B coefficient array. *)

val interpolate : n:Z.t -> Z.t array -> Z.t array
(** Polynomial through arbitrary grid targets: P(x) = targets.(x). *)

val packed_shift : n:Z.t -> bucket_size:int -> value_bits:int -> Z.t array
(** §3.3's shift polynomial: P(x) = 2^(value_bits·x). *)

type term = { exponents : int array; coeff : Z.t }
(** One monomial of a multivariate polynomial; [exponents] parallels the
    query's attribute list. *)

val multivariate_indicator : n:Z.t -> bucket_size:int -> int array -> term list
(** Joint indicator Π_c I_{j_c}(x_c) expanded in the monomial basis —
    the coefficients Algorithm 5 pairs with the stored monomials. *)

val eval_terms : n:Z.t -> term list -> int array -> Z.t
(** Oracle evaluation of a term list. *)
