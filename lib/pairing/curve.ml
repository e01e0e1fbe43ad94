(* The supersingular elliptic curve E : y² = x³ + x over F_p, p ≡ 3 (mod 4).

   For such p the curve is supersingular with #E(F_p) = p + 1; BGN key
   generation picks p = ℓ·n − 1 so the curve group has a subgroup of the
   composite order n = q₁q₂. Affine coordinates; the point at infinity is
   represented explicitly. *)

module Z = Sagma_bigint.Bigint

type point =
  | Infinity
  | Affine of Z.t * Z.t

type params = { p : Z.t }
(* The field prime. Curve coefficients are fixed: a = 1, b = 0. *)

let make_params (p : Z.t) : params =
  if Z.to_int_exn (Z.erem p (Z.of_int 4)) <> 3 then
    invalid_arg "Curve.make_params: need p ≡ 3 (mod 4)";
  { p }

let is_infinity = function Infinity -> true | Affine _ -> false

let equal a b =
  match (a, b) with
  | Infinity, Infinity -> true
  | Affine (x1, y1), Affine (x2, y2) -> Z.equal x1 x2 && Z.equal y1 y2
  | _ -> false

let neg (cp : params) = function
  | Infinity -> Infinity
  | Affine (x, y) -> Affine (x, Z.erem (Z.neg y) cp.p)

let is_on_curve (cp : params) = function
  | Infinity -> true
  | Affine (x, y) ->
    let p = cp.p in
    let lhs = Z.mulm y y p in
    let rhs = Z.erem (Z.add (Z.mul (Z.mulm x x p) x) x) p in
    Z.equal lhs rhs

(* Slope of the tangent at (x, y): (3x² + 1) / 2y. *)
let tangent_slope (cp : params) x y =
  let p = cp.p in
  let num = Z.addm (Z.mul_int (Z.mulm x x p) 3) Z.one p in
  let den = Z.invm_exn (Z.shift_left y 1) p in
  Z.mulm num den p

(* Slope of the chord through distinct x-coordinates. *)
let chord_slope (cp : params) x1 y1 x2 y2 =
  let p = cp.p in
  Z.mulm (Z.sub y2 y1) (Z.invm_exn (Z.sub x2 x1) p) p

let double (cp : params) (pt : point) : point =
  match pt with
  | Infinity -> Infinity
  | Affine (x, y) ->
    if Z.is_zero y then Infinity
    else begin
      let p = cp.p in
      let l = tangent_slope cp x y in
      let x3 = Z.erem (Z.sub (Z.mul l l) (Z.shift_left x 1)) p in
      let y3 = Z.erem (Z.sub (Z.mul l (Z.sub x x3)) y) p in
      Affine (x3, y3)
    end

let add (cp : params) (a : point) (b : point) : point =
  match (a, b) with
  | Infinity, q | q, Infinity -> q
  | Affine (x1, y1), Affine (x2, y2) ->
    if Z.equal x1 x2 then begin
      if Z.equal y1 y2 then double cp a
      else Infinity (* y1 = -y2: vertical line *)
    end else begin
      let p = cp.p in
      let l = chord_slope cp x1 y1 x2 y2 in
      let x3 = Z.erem (Z.sub (Z.sub (Z.mul l l) x1) x2) p in
      let y3 = Z.erem (Z.sub (Z.mul l (Z.sub x1 x3)) y1) p in
      Affine (x3, y3)
    end

let sub (cp : params) a b = add cp a (neg cp b)

(* --- Jacobian-coordinate fast path for scalar multiplication -------------

   Affine operations cost one field inversion each (~50× a multiplication
   with our bignum), so the double-and-add ladder runs in Jacobian
   coordinates (X, Y, Z) ≘ (X/Z², Y/Z³) with a single inversion at the
   end. Curve coefficient a = 1. *)

type jacobian = { jx : Z.t; jy : Z.t; jz : Z.t }  (* jz = 0 encodes O *)

let jac_infinity = { jx = Z.one; jy = Z.one; jz = Z.zero }

let jac_double (cp : params) (q : jacobian) : jacobian =
  let p = cp.p in
  if Z.is_zero q.jz || Z.is_zero q.jy then jac_infinity
  else begin
    let y2 = Z.mulm q.jy q.jy p in
    let s = Z.erem (Z.shift_left (Z.mul q.jx y2) 2) p in
    let z2 = Z.mulm q.jz q.jz p in
    (* M = 3X² + a·Z⁴ with a = 1 *)
    let m = Z.erem (Z.add (Z.mul_int (Z.mul q.jx q.jx) 3) (Z.mul z2 z2)) p in
    let x' = Z.erem (Z.sub (Z.mul m m) (Z.shift_left s 1)) p in
    let y' = Z.erem (Z.sub (Z.mul m (Z.sub s x')) (Z.shift_left (Z.mul y2 y2) 3)) p in
    let z' = Z.erem (Z.shift_left (Z.mul q.jy q.jz) 1) p in
    { jx = x'; jy = y'; jz = z' }
  end

(* Mixed addition: Jacobian + affine. *)
let jac_add_affine (cp : params) (q : jacobian) (x2 : Z.t) (y2 : Z.t) : jacobian =
  let p = cp.p in
  if Z.is_zero q.jz then { jx = x2; jy = y2; jz = Z.one }
  else begin
    let z1z1 = Z.mulm q.jz q.jz p in
    let u2 = Z.mulm x2 z1z1 p in
    let s2 = Z.mulm y2 (Z.mulm q.jz z1z1 p) p in
    let h = Z.subm u2 q.jx p in
    let r = Z.subm s2 q.jy p in
    if Z.is_zero h then begin
      if Z.is_zero r then jac_double cp q else jac_infinity
    end
    else begin
      let h2 = Z.mulm h h p in
      let h3 = Z.mulm h2 h p in
      let x1h2 = Z.mulm q.jx h2 p in
      let x3 = Z.erem (Z.sub (Z.sub (Z.mul r r) h3) (Z.shift_left x1h2 1)) p in
      let y3 = Z.erem (Z.sub (Z.mul r (Z.sub x1h2 x3)) (Z.mul q.jy h3)) p in
      let z3 = Z.mulm q.jz h p in
      { jx = x3; jy = y3; jz = z3 }
    end
  end

let jac_to_affine (cp : params) (q : jacobian) : point =
  if Z.is_zero q.jz then Infinity
  else begin
    let p = cp.p in
    let zi = Z.invm_exn q.jz p in
    let zi2 = Z.mulm zi zi p in
    Affine (Z.mulm q.jx zi2 p, Z.mulm q.jy (Z.mulm zi2 zi p) p)
  end

(* Scalar multiplication, double-and-add MSB-first in Jacobian form. *)
let mul (cp : params) (k : Z.t) (pt : point) : point =
  if Z.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  match pt with
  | Infinity -> Infinity
  | Affine (x, y) ->
    let nbits = Z.num_bits k in
    let acc = ref jac_infinity in
    for i = nbits - 1 downto 0 do
      acc := jac_double cp !acc;
      if Z.bit k i then acc := jac_add_affine cp !acc x y
    done;
    jac_to_affine cp !acc

let mul_int (cp : params) (k : int) (pt : point) : point = mul cp (Z.of_int k) pt

(* --- signed linear combinations, one inversion per batch -----------------

   A combination Σ kᵢ·Pᵢ with signed scalars runs as one interleaved
   (Straus) double-and-add: the doubling chain is shared by every term,
   and each set bit of |kᵢ| costs one addition of ±Pᵢ. A ±1 term is
   therefore a single addition, with no ladder at all. Everything stays
   in Jacobian form until the whole batch is normalised together. *)

let jac_of_point = function
  | Infinity -> jac_infinity
  | Affine (x, y) -> { jx = x; jy = y; jz = Z.one }

let jac_neg (cp : params) (q : jacobian) : jacobian = { q with jy = Z.erem (Z.neg q.jy) cp.p }

(* General addition of two Jacobian points; an operand with Z = 1 takes
   the cheaper mixed formula. *)
let jac_add (cp : params) (q : jacobian) (r : jacobian) : jacobian =
  if Z.is_zero r.jz then q
  else if Z.equal r.jz Z.one then jac_add_affine cp q r.jx r.jy
  else if Z.is_zero q.jz then r
  else begin
    let p = cp.p in
    let z1z1 = Z.mulm q.jz q.jz p in
    let z2z2 = Z.mulm r.jz r.jz p in
    let u1 = Z.mulm q.jx z2z2 p in
    let u2 = Z.mulm r.jx z1z1 p in
    let s1 = Z.mulm q.jy (Z.mulm r.jz z2z2 p) p in
    let s2 = Z.mulm r.jy (Z.mulm q.jz z1z1 p) p in
    let h = Z.subm u2 u1 p in
    let rr = Z.subm s2 s1 p in
    if Z.is_zero h then begin
      if Z.is_zero rr then jac_double cp q else jac_infinity
    end
    else begin
      let h2 = Z.mulm h h p in
      let h3 = Z.mulm h2 h p in
      let u1h2 = Z.mulm u1 h2 p in
      let x3 = Z.erem (Z.sub (Z.sub (Z.mul rr rr) h3) (Z.shift_left u1h2 1)) p in
      let y3 = Z.erem (Z.sub (Z.mul rr (Z.sub u1h2 x3)) (Z.mul s1 h3)) p in
      let z3 = Z.mulm (Z.mulm q.jz r.jz p) h p in
      { jx = x3; jy = y3; jz = z3 }
    end
  end

let jac_lincomb (cp : params) (terms : (Z.t * jacobian) list) : jacobian =
  let terms =
    List.filter_map
      (fun (k, b) ->
        if Z.is_zero k || Z.is_zero b.jz then None
        else Some (Z.abs k, if Z.sign k < 0 then jac_neg cp b else b))
      terms
  in
  let nbits = List.fold_left (fun m (k, _) -> max m (Z.num_bits k)) 0 terms in
  let acc = ref jac_infinity in
  for i = nbits - 1 downto 0 do
    acc := jac_double cp !acc;
    List.iter (fun (k, b) -> if Z.bit k i then acc := jac_add cp !acc b) terms
  done;
  !acc

(* Normalise a batch with one [Z.invm_batch]. Points whose Z is already 1
   (a lone ±1 term) need no inversion, so a batch of those costs none. *)
let to_affine_batch (cp : params) (qs : jacobian array) : point array =
  let p = cp.p in
  let scaled q = not (Z.is_zero q.jz || Z.equal q.jz Z.one) in
  let zs = List.filter_map (fun q -> if scaled q then Some q.jz else None) (Array.to_list qs) in
  let zinvs = Z.invm_batch (Array.of_list zs) p in
  let next = ref 0 in
  let out = Array.make (Array.length qs) Infinity in
  Array.iteri
    (fun i q ->
      if Z.equal q.jz Z.one then out.(i) <- Affine (q.jx, q.jy)
      else if scaled q then begin
        let zi = zinvs.(!next) in
        incr next;
        let zi2 = Z.mulm zi zi p in
        out.(i) <- Affine (Z.mulm q.jx zi2 p, Z.mulm q.jy (Z.mulm zi2 zi p) p)
      end)
    qs;
  out

let lincomb_batch2 (cp : params) (first : (Z.t * point) list array)
    (second : (Z.t * int) list array) : point array * point array =
  let jfirst =
    Array.map (fun terms -> jac_lincomb cp (List.map (fun (k, pt) -> (k, jac_of_point pt)) terms)) first
  in
  let jsecond =
    Array.map (fun terms -> jac_lincomb cp (List.map (fun (k, i) -> (k, jfirst.(i))) terms)) second
  in
  let out = to_affine_batch cp (Array.append jfirst jsecond) in
  let n1 = Array.length first in
  (Array.sub out 0 n1, Array.sub out n1 (Array.length second))

let lincomb_batch (cp : params) (combos : (Z.t * point) list array) : point array =
  fst (lincomb_batch2 cp combos [||])

(* Sample a uniformly random curve point (never Infinity). *)
let random_point (cp : params) (rng : Z.rng) : point =
  let p = cp.p in
  let rec go () =
    let x = Z.random_below rng p in
    let rhs = Z.erem (Z.add (Z.mul (Z.mulm x x p) x) x) p in
    match Z.sqrtm_p3 rhs p with
    | None -> go ()
    | Some y ->
      (* Flip the sign of y on a coin to cover both roots. *)
      let flip = Char.code (rng 1).[0] land 1 = 1 in
      let y = if flip && not (Z.is_zero y) then Z.sub p y else y in
      Affine (x, y)
  in
  go ()

let serialize = function
  | Infinity -> "inf"
  | Affine (x, y) -> Z.to_bytes_be x ^ "|" ^ Z.to_bytes_be y

let to_string = function
  | Infinity -> "O"
  | Affine (x, y) -> Printf.sprintf "(%s, %s)" (Z.to_string x) (Z.to_string y)
