(* Composable random-value generators, drawn from the repository's own
   deterministic DRBG (lib/crypto/drbg.ml).

   A generator is simply a function of the DRBG; composition is function
   composition, so generators stay referentially transparent per seed:
   the same seed always produces the same value, which is what makes
   failing property cases replayable (see {!Runner}). *)

module Drbg = Sagma_crypto.Drbg
module Z = Sagma_bigint.Bigint

type 'a t = Drbg.t -> 'a

let return (x : 'a) : 'a t = fun _ -> x

let map (f : 'a -> 'b) (g : 'a t) : 'b t = fun d -> f (g d)

let map2 (f : 'a -> 'b -> 'c) (ga : 'a t) (gb : 'b t) : 'c t =
 fun d ->
  let a = ga d in
  let b = gb d in
  f a b

let map3 (f : 'a -> 'b -> 'c -> 'd) (ga : 'a t) (gb : 'b t) (gc : 'c t) : 'd t =
 fun d ->
  let a = ga d in
  let b = gb d in
  let c = gc d in
  f a b c

let bind (g : 'a t) (f : 'a -> 'b t) : 'b t =
 fun d ->
  let a = g d in
  f a d

let pair (ga : 'a t) (gb : 'b t) : ('a * 'b) t = map2 (fun a b -> (a, b)) ga gb

let triple (ga : 'a t) (gb : 'b t) (gc : 'c t) : ('a * 'b * 'c) t =
  map3 (fun a b c -> (a, b, c)) ga gb gc

(* --- scalars ---------------------------------------------------------------- *)

let bool : bool t = Drbg.bool

let int_range (lo : int) (hi : int) : int t =
 fun d ->
  if lo > hi then invalid_arg "Gen.int_range: lo > hi";
  if hi - lo + 1 > 0 then Drbg.int_range d lo hi
  else begin
    (* Span wider than max_int: rejection-sample uniform native ints
       (63 random bits reinterpreted as a signed int). *)
    let rec go () =
      let b = Drbg.bytes d 8 in
      let v = ref 0 in
      String.iter (fun c -> v := (!v lsl 8) lor Char.code c) b;
      if !v >= lo && !v <= hi then !v else go ()
    in
    go ()
  end

let int_below (bound : int) : int t = fun d -> Drbg.int_below d bound

(* Log-uniform positive size: favors small structures while still
   reaching [hi], which is what shrinking-friendly structure generation
   wants. *)
let size ?(lo = 0) ~(hi : int) () : int t =
 fun d ->
  if hi < lo then invalid_arg "Gen.size: hi < lo";
  let span = hi - lo in
  if span = 0 then lo
  else begin
    let bits =
      let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
      width 0 span
    in
    let b = 1 + Drbg.int_below d bits in
    lo + Drbg.int_below d (Stdlib.min (span + 1) (1 lsl b))
  end

(* Mostly in-range, sometimes the exact boundaries: integer properties
   live or die at the edges. *)
let int_edgy (lo : int) (hi : int) : int t =
 fun d ->
  match Drbg.int_below d 10 with
  | 0 -> lo
  | 1 -> hi
  | _ -> int_range lo hi d

let oneofl (xs : 'a list) : 'a t =
 fun d ->
  if xs = [] then invalid_arg "Gen.oneofl: empty";
  List.nth xs (Drbg.int_below d (List.length xs))

let oneof (gs : 'a t list) : 'a t =
 fun d ->
  if gs = [] then invalid_arg "Gen.oneof: empty";
  List.nth gs (Drbg.int_below d (List.length gs)) d

let frequency (weighted : (int * 'a t) list) : 'a t =
 fun d ->
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  if total <= 0 then invalid_arg "Gen.frequency: non-positive total weight";
  let roll = Drbg.int_below d total in
  let rec go acc = function
    | [] -> assert false
    | (w, g) :: rest -> if roll < acc + w then g d else go (acc + w) rest
  in
  go 0 weighted

(* --- structures ------------------------------------------------------------- *)

let list_size (n : int t) (g : 'a t) : 'a list t =
 fun d ->
  let len = n d in
  List.init len (fun _ -> g d)

let list ?(max_len = 16) (g : 'a t) : 'a list t = list_size (size ~hi:max_len ()) g

let string_size ?(chars = fun d -> Char.chr (Drbg.int_range d 0x20 0x7e)) (n : int t) : string t =
 fun d ->
  let len = n d in
  String.init len (fun _ -> chars d)

let bytes_size (n : int t) : string t =
  string_size ~chars:(fun d -> Char.chr (Drbg.int_below d 256)) n

let bytes ?(max_len = 32) () : string t = bytes_size (size ~hi:max_len ())

let shuffle (xs : 'a list) : 'a list t =
 fun d ->
  let a = Array.of_list xs in
  Drbg.shuffle d a;
  Array.to_list a

(* Non-empty random subset of [xs], in [xs]'s order. *)
let subset (xs : 'a list) : 'a list t =
 fun d ->
  if xs = [] then invalid_arg "Gen.subset: empty";
  let rec go () =
    let picked = List.filter (fun _ -> Drbg.bool d) xs in
    if picked = [] then go () else picked
  in
  go ()

(* --- bigints ---------------------------------------------------------------- *)

let bigint_bits (bits : int) : Z.t t = fun d -> Z.random_bits (Drbg.rng d) bits

let bigint_below (bound : Z.t) : Z.t t = fun d -> Z.random_below (Drbg.rng d) bound

(* Values hugging the 26-bit limb boundaries of lib/bigint/nat.ml:
   2^(26k) ± δ and (2^26 − 1)-limb runs — where carry, borrow and
   normalization bugs live. *)
let bigint_boundary : Z.t t =
 fun d ->
  let limb_bits = 26 in
  let k = 1 + Drbg.int_below d 8 in
  match Drbg.int_below d 4 with
  | 0 ->
    (* 2^(26k) ± δ, straddling a limb boundary *)
    let delta = Drbg.int_range d (-2) 2 in
    let v = Z.add (Z.shift_left Z.one (limb_bits * k)) (Z.of_int delta) in
    if Z.sign v <= 0 then Z.one else v
  | 1 ->
    (* k limbs of all-ones: maximal carry chains *)
    Z.pred (Z.shift_left Z.one (limb_bits * k))
  | 2 ->
    (* a single high limb with its top bit set (base/2 ≤ limb < base) *)
    let top = Drbg.int_range d (1 lsl (limb_bits - 1)) ((1 lsl limb_bits) - 1) in
    Z.shift_left (Z.of_int top) (limb_bits * (k - 1))
  | _ ->
    (* plain uniform filler of up to 8 limbs *)
    Z.random_bits (Drbg.rng d) (1 + Drbg.int_below d (limb_bits * 8))

let bigint ?(bits = 192) () : Z.t t =
  frequency [ (3, fun d -> Z.random_bits (Drbg.rng d) (1 + Drbg.int_below d bits));
              (2, bigint_boundary);
              (1, oneofl [ Z.zero; Z.one; Z.two ]) ]

let bigint_signed ?bits () : Z.t t =
  map2 (fun neg z -> if neg then Z.neg z else z) bool (bigint ?bits ())

let bigint_nonzero ?bits () : Z.t t =
 fun d ->
  let rec go () =
    let z = bigint ?bits () d in
    if Z.is_zero z then go () else z
  in
  go ()
