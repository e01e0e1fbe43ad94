(* The stored-monomial index (§3.4, §4.1).

   EncRow stores one BGN ciphertext per monomial x_1^{e_1}···x_l^{e_l}
   with exponent vector e ∈ {0..B−1}^l, e ≠ 0, and |support(e)| ≤ t.
   Monomial reuse (Figure 2) is exactly this: a query over attributes Q
   only touches exponent vectors supported inside Q, and those same
   vectors serve every superset query.

   The count is m(l,t) = Σ_{i=1..t} C(l,i)·(B−1)^i (§4.1, Table 9). *)

type t = {
  num_columns : int;                       (* l *)
  bucket_size : int;                       (* B *)
  threshold : int;                         (* t *)
  vectors : int array array;               (* storage order *)
  index : (string, int) Hashtbl.t;         (* exponent vector -> position *)
}

let key_of (e : int array) : string =
  String.concat "," (Array.to_list (Array.map string_of_int e))

(* Enumerate exponent vectors with nonzero entries in [1, B−1] and support
   size in [1, t], in a deterministic order. *)
let enumerate ~(num_columns : int) ~(bucket_size : int) ~(threshold : int) : int array array =
  let out = ref [] in
  (* choose support subsets by recursion over columns *)
  let rec go col support_size current =
    if col = num_columns then begin
      if support_size > 0 then out := Array.of_list (List.rev current) :: !out
    end
    else begin
      (* zero exponent at this column *)
      go (col + 1) support_size (0 :: current);
      if support_size < threshold then
        for e = 1 to bucket_size - 1 do
          go (col + 1) (support_size + 1) (e :: current)
        done
    end
  in
  go 0 0 [];
  Array.of_list (List.rev !out)

let make ~(num_columns : int) ~(bucket_size : int) ~(threshold : int) : t =
  let vectors = enumerate ~num_columns ~bucket_size ~threshold in
  let index = Hashtbl.create (2 * Array.length vectors) in
  Array.iteri (fun i e -> Hashtbl.add index (key_of e) i) vectors;
  { num_columns; bucket_size; threshold; vectors; index }

let count (t : t) : int = Array.length t.vectors

(* Closed form m(l,t) = Σ C(l,i)·(B−1)^i (§4.1). *)
let count_formula ~(num_columns : int) ~(bucket_size : int) ~(threshold : int) : int =
  let choose n k =
    if k < 0 || k > n then 0
    else begin
      let acc = ref 1 in
      for i = 0 to k - 1 do
        acc := !acc * (n - i) / (i + 1)
      done;
      !acc
    end
  in
  let rec sum i acc =
    if i > threshold then acc
    else begin
      let pow = int_of_float (float_of_int (bucket_size - 1) ** float_of_int i) in
      sum (i + 1) (acc + (choose num_columns i * pow))
    end
  in
  sum 1 0

(* The naïve scheme's count (§4.1): apply the single-combination scheme to
   every subset of size ≤ t — no reuse across subsets. *)
let count_naive ~(num_columns : int) ~(bucket_size : int) ~(threshold : int) : int =
  let choose n k =
    if k < 0 || k > n then 0
    else begin
      let acc = ref 1 in
      for i = 0 to k - 1 do
        acc := !acc * (n - i) / (i + 1)
      done;
      !acc
    end
  in
  let rec sum i acc =
    if i > threshold then acc
    else begin
      let bt = int_of_float (float_of_int bucket_size ** float_of_int i) in
      sum (i + 1) (acc + (choose num_columns i * (bt - 1)))
    end
  in
  sum 1 0

(* Position of an exponent vector in storage order. *)
let position (t : t) (e : int array) : int =
  match Hashtbl.find_opt t.index (key_of e) with
  | Some i -> i
  | None -> invalid_arg ("Monomials.position: unsupported exponent vector " ^ key_of e)

(* Plaintext value of monomial [e] on bucketized group offsets [xs]
   (length l). Computed mod nothing — callers reduce. *)
let eval_monomial (e : int array) (xs : int array) : Sagma_bigint.Bigint.t =
  let module Z = Sagma_bigint.Bigint in
  let acc = ref Z.one in
  Array.iteri (fun c exp -> if exp > 0 then acc := Z.mul !acc (Z.pow (Z.of_int xs.(c)) exp)) e;
  !acc

(* Lift a query-local exponent vector (parallel to the queried columns) to
   the full-width vector over all l columns. *)
let lift_exponents (t : t) ~(query_columns : int array) (local : int array) : int array =
  let full = Array.make t.num_columns 0 in
  Array.iteri (fun c e -> full.(query_columns.(c)) <- e) local;
  full
