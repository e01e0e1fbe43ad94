(* The supersingular elliptic curve E : y² = x³ + x over F_p, p ≡ 3 (mod 4).

   For such p the curve is supersingular with #E(F_p) = p + 1; BGN key
   generation picks p = ℓ·n − 1 so the curve group has a subgroup of the
   composite order n = q₁q₂. Points are affine, with the point at
   infinity explicit. The affine operations ([add], [double], [neg], the
   slopes, [is_on_curve], [random_point]) run on [Z]: each costs one egcd
   anyway, and they are the reference the property tests and
   [Pairing.pairing_affine] use. Scalar multiplication and signed
   combinations run in Jacobian coordinates on Montgomery residues, with
   one inversion per call or batch. *)

module Z = Sagma_bigint.Bigint
module M = Z.Mont

type point =
  | Infinity
  | Affine of Z.t * Z.t

type params = { p : Z.t; mont : M.ctx }
(* The field prime and its Montgomery context. Curve coefficients are
   fixed: a = 1, b = 0. *)

let make_params (p : Z.t) : params =
  if Z.sign p <= 0 || not (Z.bit p 0 && Z.bit p 1) then
    invalid_arg "Curve.make_params: need p ≡ 3 (mod 4)";
  { p; mont = M.make p }

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

(* --- Jacobian coordinates on Montgomery residues ---------------------------

   Affine operations cost one field inversion each (an egcd, ~50× a
   multiplication), so scalar multiplication and signed combinations run
   in Jacobian coordinates (X, Y, Z) ≘ (X/Z², Y/Z³) with one inversion at
   the end. The coordinates are Montgomery residues of [cp.mont]: they
   enter through [M.of_z] once per input point and leave through
   [M.to_z] when a result is normalised, so no product in between
   divides. Curve coefficient a = 1. [Pairing.precompute] walks its
   Miller ladder with the same two steps, reading each step's line
   ingredients. *)

type jacobian = { jx : M.el; jy : M.el; jz : M.el }  (* jz = 0 encodes O *)

type line =
  | No_line
  | Tangent of { m : M.el; z1z1 : M.el; yy : M.el }
  | Chord of { r : M.el }

let jac_infinity (cp : params) = { jx = M.one cp.mont; jy = M.one cp.mont; jz = M.zero cp.mont }

let jac_of_point (cp : params) = function
  | Infinity -> jac_infinity cp
  | Affine (x, y) -> { jx = M.of_z cp.mont x; jy = M.of_z cp.mont y; jz = M.one cp.mont }

let jac_double_step (cp : params) (q : jacobian) : jacobian * line =
  if M.is_zero q.jz || M.is_zero q.jy then (jac_infinity cp, No_line)
  else begin
    let mc = cp.mont in
    let ( *: ) a b = M.mul mc a b and ( +: ) a b = M.add mc a b and ( -: ) a b = M.sub mc a b in
    let dbl x = x +: x in
    let yy = q.jy *: q.jy in
    let s = dbl (dbl (q.jx *: yy)) in
    let z1z1 = q.jz *: q.jz in
    let xx = q.jx *: q.jx in
    (* M = 3X² + a·Z⁴ with a = 1 *)
    let m = dbl xx +: xx +: (z1z1 *: z1z1) in
    let x3 = (m *: m) -: dbl s in
    let y3 = (m *: (s -: x3)) -: dbl (dbl (dbl (yy *: yy))) in
    let z3 = dbl (q.jy *: q.jz) in
    ({ jx = x3; jy = y3; jz = z3 }, Tangent { m; z1z1; yy })
  end

(* Mixed addition: Jacobian + affine (x2, y2), both in Montgomery form. *)
let jac_add_affine_step (cp : params) (q : jacobian) (x2 : M.el) (y2 : M.el) : jacobian * line =
  let mc = cp.mont in
  if M.is_zero q.jz then ({ jx = x2; jy = y2; jz = M.one mc }, No_line)
  else begin
    let ( *: ) a b = M.mul mc a b and ( -: ) a b = M.sub mc a b in
    let z1z1 = q.jz *: q.jz in
    let u2 = x2 *: z1z1 in
    let s2 = y2 *: (q.jz *: z1z1) in
    let h = u2 -: q.jx in
    let r = s2 -: q.jy in
    if M.is_zero h then begin
      if M.is_zero r then jac_double_step cp q else (jac_infinity cp, No_line)
    end
    else begin
      let h2 = h *: h in
      let h3 = h2 *: h in
      let x1h2 = q.jx *: h2 in
      let x3 = (r *: r) -: h3 -: M.add mc x1h2 x1h2 in
      let y3 = (r *: (x1h2 -: x3)) -: (q.jy *: h3) in
      let z3 = q.jz *: h in
      ({ jx = x3; jy = y3; jz = z3 }, Chord { r })
    end
  end

let jac_double cp q = fst (jac_double_step cp q)
let jac_add_affine cp q x2 y2 = fst (jac_add_affine_step cp q x2 y2)

(* (X·zi², Y·zi³) for zi = Z⁻¹ in Montgomery form, back on [Z]. *)
let scaled_affine (cp : params) (q : jacobian) (zi : M.el) : point =
  let mc = cp.mont in
  let zi2 = M.mul mc zi zi in
  Affine (M.to_z mc (M.mul mc q.jx zi2), M.to_z mc (M.mul mc q.jy (M.mul mc zi2 zi)))

(* Scalar multiplication, double-and-add MSB-first in Jacobian form, with
   one [Z.invm_exn] at the end. *)
let mul (cp : params) (k : Z.t) (pt : point) : point =
  if Z.sign k < 0 then invalid_arg "Curve.mul: negative scalar";
  match pt with
  | Infinity -> Infinity
  | Affine _ ->
    let b = jac_of_point cp pt in
    let acc = ref (jac_infinity cp) in
    for i = Z.num_bits k - 1 downto 0 do
      acc := jac_double cp !acc;
      if Z.bit k i then acc := jac_add_affine cp !acc b.jx b.jy
    done;
    let q = !acc and mc = cp.mont in
    if M.is_zero q.jz then Infinity
    else scaled_affine cp q (M.of_z mc (Z.invm_exn (M.to_z mc q.jz) cp.p))

let mul_int (cp : params) (k : int) (pt : point) : point = mul cp (Z.of_int k) pt

(* --- signed linear combinations, one inversion per batch -----------------

   A combination Σ kᵢ·Pᵢ with signed scalars runs as one interleaved
   (Straus) double-and-add: the doubling chain is shared by every term,
   and each set bit of |kᵢ| costs one addition of ±Pᵢ. A ±1 term is
   therefore a single addition, with no ladder at all. Everything stays
   in Jacobian form until the whole batch is normalised together. *)

let jac_neg (cp : params) (q : jacobian) : jacobian =
  { q with jy = M.sub cp.mont (M.zero cp.mont) q.jy }

(* General addition of two Jacobian points; an operand with Z = 1 takes
   the cheaper mixed formula. *)
let jac_add (cp : params) (q : jacobian) (r : jacobian) : jacobian =
  let mc = cp.mont in
  if M.is_zero r.jz then q
  else if M.equal r.jz (M.one mc) then jac_add_affine cp q r.jx r.jy
  else if M.is_zero q.jz then r
  else begin
    let ( *: ) a b = M.mul mc a b and ( -: ) a b = M.sub mc a b in
    let z1z1 = q.jz *: q.jz in
    let z2z2 = r.jz *: r.jz in
    let u1 = q.jx *: z2z2 in
    let u2 = r.jx *: z1z1 in
    let s1 = q.jy *: (r.jz *: z2z2) in
    let s2 = r.jy *: (q.jz *: z1z1) in
    let h = u2 -: u1 in
    let rr = s2 -: s1 in
    if M.is_zero h then begin
      if M.is_zero rr then jac_double cp q else jac_infinity cp
    end
    else begin
      let h2 = h *: h in
      let h3 = h2 *: h in
      let u1h2 = u1 *: h2 in
      let x3 = (rr *: rr) -: h3 -: M.add mc u1h2 u1h2 in
      let y3 = (rr *: (u1h2 -: x3)) -: (s1 *: h3) in
      let z3 = (q.jz *: r.jz) *: h in
      { jx = x3; jy = y3; jz = z3 }
    end
  end

let jac_lincomb (cp : params) (terms : (Z.t * jacobian) list) : jacobian =
  let terms =
    List.filter_map
      (fun (k, b) ->
        if Z.is_zero k || M.is_zero b.jz then None
        else Some (Z.abs k, if Z.sign k < 0 then jac_neg cp b else b))
      terms
  in
  let nbits = List.fold_left (fun m (k, _) -> max m (Z.num_bits k)) 0 terms in
  let acc = ref (jac_infinity cp) in
  for i = nbits - 1 downto 0 do
    acc := jac_double cp !acc;
    List.iter (fun (k, b) -> if Z.bit k i then acc := jac_add cp !acc b) terms
  done;
  !acc

(* Normalise a batch with one [Z.invm_batch]. Points whose Z is already 1
   (a lone ±1 term) need no inversion, so a batch of those costs none. *)
let to_affine_batch (cp : params) (qs : jacobian array) : point array =
  let mc = cp.mont in
  let one = M.one mc in
  let scaled q = not (M.is_zero q.jz || M.equal q.jz one) in
  let zs = List.filter_map (fun q -> if scaled q then Some (M.to_z mc q.jz) else None) (Array.to_list qs) in
  let zinvs = Z.invm_batch (Array.of_list zs) cp.p in
  let next = ref 0 in
  let out = Array.make (Array.length qs) Infinity in
  Array.iteri
    (fun i q ->
      if M.equal q.jz one then out.(i) <- Affine (M.to_z mc q.jx, M.to_z mc q.jy)
      else if scaled q then begin
        let zi = zinvs.(!next) in
        incr next;
        out.(i) <- scaled_affine cp q (M.of_z mc zi)
      end)
    qs;
  out

let lincomb_batch2 (cp : params) (first : (Z.t * point) list array)
    (second : (Z.t * int) list array) : point array * point array =
  let jfirst =
    Array.map (fun terms -> jac_lincomb cp (List.map (fun (k, pt) -> (k, jac_of_point cp pt)) terms)) first
  in
  let jsecond =
    Array.map (fun terms -> jac_lincomb cp (List.map (fun (k, i) -> (k, jfirst.(i))) terms)) second
  in
  let out = to_affine_batch cp (Array.append jfirst jsecond) in
  let n1 = Array.length first in
  (Array.sub out 0 n1, Array.sub out n1 (Array.length second))

let lincomb_batch (cp : params) (combos : (Z.t * point) list array) : point array =
  fst (lincomb_batch2 cp combos [||])

(* --- fixed-base combs ---------------------------------------------------------

   For bases fixed across many multiplications (BGN's g and h), a
   Lim–Lee comb with eight teeth cuts a scalar below 2^(8·d) into d
   columns: bit j + d·i of k is tooth i of column j. A base's table
   holds, for every nonzero eight-bit column value s, the point
   Σ_{i ∈ s} 2^(d·i)·P, affine in Montgomery form. Then k·P is d − 1
   doublings plus one mixed addition per nonzero column, instead of |k|
   doublings; the bases of one comb share the doublings. *)

let comb_teeth = 8

type comb = {
  spacing : int;                 (* d = ⌈bits / teeth⌉ *)
  tables : jacobian array array; (* per base, 2^teeth entries at Z = 1 or O; entry 0 is O *)
}

let make_comb (cp : params) ~(bits : int) (bases : point array) : comb =
  let spacing = max 1 ((bits + comb_teeth - 1) / comb_teeth) in
  let size = 1 lsl comb_teeth in
  let jac_table pt =
    let t = Array.make size (jac_infinity cp) in
    let b = ref (jac_of_point cp pt) in
    for i = 0 to comb_teeth - 1 do
      if i > 0 then
        for _ = 1 to spacing do
          b := jac_double cp !b
        done;
      t.(1 lsl i) <- !b
    done;
    for s = 1 to size - 1 do
      let low = s land -s in
      if s <> low then t.(s) <- jac_add cp t.(s - low) t.(low)
    done;
    t
  in
  (* Every entry of every base under one batched inversion. *)
  let affine = to_affine_batch cp (Array.concat (Array.to_list (Array.map jac_table bases))) in
  let one = M.one cp.mont in
  let entry = function
    | Infinity -> jac_infinity cp
    | Affine (x, y) -> { jx = M.of_z cp.mont x; jy = M.of_z cp.mont y; jz = one }
  in
  { spacing; tables = Array.mapi (fun b _ -> Array.init size (fun s -> entry affine.((b * size) + s))) bases }

let comb_lincomb ?(plus = Infinity) (cp : params) (c : comb) (scalars : Z.t array) : point =
  if Array.length scalars <> Array.length c.tables then
    invalid_arg "Curve.comb_lincomb: one scalar per base";
  Array.iter
    (fun k ->
      if Z.sign k < 0 || Z.num_bits k > comb_teeth * c.spacing then
        invalid_arg "Curve.comb_lincomb: scalar out of range")
    scalars;
  let d = c.spacing in
  let column k j =
    let s = ref 0 in
    for i = comb_teeth - 1 downto 0 do
      s := (2 * !s) + if Z.bit k (j + (d * i)) then 1 else 0
    done;
    !s
  in
  let acc = ref (jac_infinity cp) in
  for j = d - 1 downto 0 do
    acc := jac_double cp !acc;
    Array.iteri
      (fun b k ->
        let s = column k j in
        if s > 0 then acc := jac_add cp !acc c.tables.(b).(s))
      scalars
  done;
  (to_affine_batch cp [| jac_add cp !acc (jac_of_point cp plus) |]).(0)

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
