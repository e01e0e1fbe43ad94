(* Unsigned arbitrary-precision naturals.

   Representation: little-endian [int array] of limbs in base 2^26,
   normalized (no most-significant zero limbs); zero is [||].

   26-bit limbs keep every intermediate inside OCaml's 63-bit native
   integers: a limb product is < 2^52, so a product plus a limb plus a
   carry stays < 2^53, and Knuth's division needs only a 52-bit by
   26-bit hardware division. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

(* Strip most-significant zero limbs. *)
let normalize (a : t) : t =
  let n = Array.length a in
  let rec top i = if i > 0 && a.(i - 1) = 0 then top (i - 1) else i in
  let m = top n in
  if m = n then a else Array.sub a 0 m

let of_int (x : int) : t =
  if x < 0 then invalid_arg "Nat.of_int: negative"
  else if x = 0 then zero
  else begin
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let n = count 0 x in
    Array.init n (fun i -> (x lsr (i * limb_bits)) land limb_mask)
  end

let to_int_opt (a : t) : int option =
  (* max_int has 62 bits: up to 2 full limbs plus 10 bits of a third. *)
  let n = Array.length a in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let num_bits (a : t) : int =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    ((n - 1) * limb_bits) + width 0 top
  end

let bit (a : t) (i : int) : bool =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = (if la > lb then la else lb) + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

(* Requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: underflow";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: underflow";
  normalize r

let add_int (a : t) (x : int) : t = add a (of_int x)

(* Multiply by a single limb (0 <= x < base) and add into nothing. *)
let mul_limb (a : t) (x : int) : t =
  if x = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * x) + !carry in
      r.(i) <- p land limb_mask;
      carry := p lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- p land limb_mask;
          carry := p lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land limb_mask;
          carry := s lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

(* Measured crossover on this representation is ≈4096 bits (see
   `bench ablation:karatsuba`); below it the recursion overhead loses to
   the cache-friendly schoolbook loop. *)
let karatsuba_threshold = 80

(* Split [a] at limb index [k] into (low, high). *)
let split_at (a : t) (k : int) : t * t =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), Array.sub a k (la - k))

let shift_limbs (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let k = (if la > lb then la else lb) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let shift_left (a : t) (k : int) : t =
  if k < 0 then invalid_arg "Nat.shift_left: negative"
  else if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) (k : int) : t =
  if k < 0 then invalid_arg "Nat.shift_right: negative"
  else if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        r.(i) <- if bits = 0 then a.(i + limbs) else lo lor hi
      done;
      normalize r
    end
  end

(* Division by a single limb: returns (quotient, remainder). *)
let divmod_limb (a : t) (d : int) : t * int =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_limb";
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth TAOCP vol.2 Algorithm D.  Requires b <> 0. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end else begin
    (* Normalize: shift so divisor's top limb has its high bit set. *)
    let shift = limb_bits - (num_bits b - (Array.length b - 1) * limb_bits) in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    let m = if m < 0 then 0 else m in
    (* Working copy of u with one extra high limb. *)
    let w = Array.make (Array.length u + 1) 0 in
    Array.blit u 0 w 0 (Array.length u);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vsec = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      (* Estimate q_hat from the top two limbs of the current remainder. *)
      let num = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
      let qhat = ref (num / vtop) in
      let rhat = ref (num mod vtop) in
      if !qhat >= base then begin qhat := base - 1; rhat := num - !qhat * vtop end;
      (* Refine using the third limb. *)
      let continue = ref true in
      while !continue && !rhat < base do
        let lhs = !qhat * vsec in
        let rhs = (!rhat lsl limb_bits) lor (if j + n - 2 >= 0 then w.(j + n - 2) else 0) in
        if lhs > rhs then begin decr qhat; rhat := !rhat + vtop end
        else continue := false
      done;
      (* Multiply-and-subtract: w[j..j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr limb_bits;
        let d = w.(j + i) - (p land limb_mask) - !borrow in
        if d < 0 then begin w.(j + i) <- d + base; borrow := 1 end
        else begin w.(j + i) <- d; borrow := 0 end
      done;
      let d = w.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        w.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = w.(j + i) + v.(i) + !c in
          w.(j + i) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        w.(j + n) <- (w.(j + n) + !c) land limb_mask
      end else
        w.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let rem = normalize (Array.sub w 0 n) in
    (normalize q, shift_right rem shift)
  end

let rem a b = snd (divmod a b)

(* Decimal conversion works in chunks of 7 digits: 10^7 < 2^26. *)
let decimal_chunk = 10_000_000
let decimal_chunk_digits = 7

let to_string (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        let q, r = divmod_limb a decimal_chunk in
        go q (r :: acc)
      end
    in
    (match go a [] with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest);
    Buffer.contents buf
  end

let of_string (s : string) : t =
  let n = String.length s in
  if n = 0 then invalid_arg "Nat.of_string: empty";
  String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Nat.of_string: bad digit") s;
  let acc = ref zero in
  let i = ref 0 in
  while !i < n do
    let take = min decimal_chunk_digits (n - !i) in
    let chunk = int_of_string (String.sub s !i take) in
    let scale = int_of_float (10. ** float_of_int take) in
    acc := add_int (mul_limb !acc scale) chunk;
    i := !i + take
  done;
  !acc

let to_hex (a : t) : string =
  if is_zero a then "0"
  else begin
    let bits = num_bits a in
    let digits = (bits + 3) / 4 in
    let buf = Buffer.create digits in
    for i = digits - 1 downto 0 do
      let nibble =
        ((if bit a (4 * i + 3) then 8 else 0)
         lor (if bit a (4 * i + 2) then 4 else 0)
         lor (if bit a (4 * i + 1) then 2 else 0)
         lor (if bit a (4 * i) then 1 else 0))
      in
      Buffer.add_char buf "0123456789abcdef".[nibble]
    done;
    Buffer.contents buf
  end

let of_hex (s : string) : t =
  let n = String.length s in
  if n = 0 then invalid_arg "Nat.of_hex: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> invalid_arg "Nat.of_hex: bad digit"
      in
      acc := add_int (shift_left !acc 4) v)
    s;
  !acc

(* Big-endian byte deserialization; used to turn raw PRG output into
   numbers without bias games at call sites. *)
let of_bytes_be (s : string) : t =
  let acc = ref zero in
  String.iter (fun c -> acc := add_int (shift_left !acc 8) (Char.code c)) s;
  !acc

let to_bytes_be (a : t) : string =
  let nbytes = (num_bits a + 7) / 8 in
  if nbytes = 0 then ""
  else
    String.init nbytes (fun i ->
        let bit_base = (nbytes - 1 - i) * 8 in
        let v = ref 0 in
        for b = 7 downto 0 do
          v := (!v lsl 1) lor (if bit a (bit_base + b) then 1 else 0)
        done;
        Char.chr !v)
