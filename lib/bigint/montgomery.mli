(** Montgomery modular multiplication (product scanning) over 26-bit
    limbs.

    Numbers are carried as x·R mod n with R = base^k; a multiplication
    costs ~2k² limb products and no division. Each output column is
    summed in one native int, which bounds the modulus at
    {!max_limbs} limbs. {!Bigint.powm} dispatches here for large odd
    moduli up to that bound. *)

type ctx

val max_limbs : int
(** 511: the widest modulus (13,286 bits) whose product columns fit a
    native int. *)

val make : Nat.t -> ctx
(** @raise Invalid_argument for even or zero moduli and for moduli of
    more than {!max_limbs} limbs. *)

val limb_inverse : int -> int
(** Inverse of an odd limb mod 2^26 (exposed for tests). *)

val mont_mul : ctx -> int array -> int array -> int array
(** a·b·R⁻¹ mod n on k-limb padded operands below n (exposed for
    tests). @raise Invalid_argument unless both operands have k limbs. *)

val pad : ctx -> Nat.t -> int array
val to_mont : ctx -> Nat.t -> int array
val of_mont : ctx -> int array -> Nat.t

val add : ctx -> int array -> int array -> int array
(** (a + b) mod n on k-limb padded residues (< n); Montgomery form is
    linear, so this works unchanged on Montgomery representatives. *)

val sub : ctx -> int array -> int array -> int array
(** (a - b) mod n on k-limb padded residues (< n). *)

val one : ctx -> int array
(** Montgomery form of 1 (R mod n), k-limb padded. *)

val pow_mont : ctx -> int array -> Nat.t -> int array
(** [pow_mont c b e] is b^e for a Montgomery-form [b], in Montgomery
    form: fixed 4-bit windows, so about |e| squarings, |e|/4 products
    and 14 to fill the table. *)

val powm : ctx -> Nat.t -> Nat.t -> Nat.t
(** base^expo mod n, through {!pow_mont}; [base] may be any natural. *)
