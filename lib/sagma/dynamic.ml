(* Dynamically shifted bucketization for a single grouping attribute
   (§3.3), with *packed* shift polynomials.

   Unlike the unit-shift strategy the full scheme uses (one indicator
   polynomial per block, B^q small aggregates), this variant evaluates a
   single polynomial P with P(offset) = |D_V|^offset, multiplies it into
   the value with the one BGN pairing, and aggregates one packed
   ciphertext per bucket per CRT channel — one pairing per row instead of
   B, at the price of a (d−1)² discrete-log range per channel and a CRT
   capacity of B·value_bits bits. It exists here as the §3.3 construction
   and as the packed-vs-unit ablation (`bench ablation:shift-strategy`).

   COUNT "aggregates the shifts instead of the shifted values" (§6):
   level-1 additions of the per-channel packed shifts, no pairing at all.

   Bucket membership is taken from the same SSE machinery as the full
   scheme; for clarity this module receives rows already grouped by
   bucket (the grouping layer is identical and tested in Scheme). *)

module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Drbg = Sagma_crypto.Drbg
module Bgn = Sagma_bgn.Bgn
module Crt = Sagma_bgn.Crt_channels

type client = {
  kp : Bgn.keypair;
  mapping : Mapping.t;
  channels : Crt.t;
  bucket_size : int;
  value_bits : int;
  (* Per channel c, coefficients of the packed shift polynomial with
     targets 2^(value_bits·j) mod d_c on the grid {0..B−1}. Public. *)
  shift_polys : Z.t array array;
  drbg : Drbg.t;
}

let setup ?(bgn_bits = 64) ?(value_bits = 12) ?(channel_bits = 8)
    ?(mapping_strategy = Mapping.Prf_random) ~(bucket_size : int) ~(domain : Value.t list)
    (drbg : Drbg.t) : client =
  let kp = Bgn.keygen ~bits:bgn_bits drbg in
  let n = Bgn.n kp.Bgn.pk in
  let key = Sagma_crypto.Prf.gen_key drbg in
  let mapping = Mapping.make mapping_strategy key domain ~bucket_size in
  (* Capacity: B packed blocks of value_bits plus 24 bits of row head-room. *)
  let channels =
    Crt.choose ~channel_bits ~capacity_bits:((bucket_size * value_bits) + 24)
  in
  let shift_polys =
    Array.map
      (fun d ->
        Polynomial.interpolate ~n
          (Array.init bucket_size (fun j ->
               Z.erem (Z.shift_left Z.one (value_bits * j)) (Z.of_int d))))
      channels.Crt.moduli
  in
  { kp; mapping; channels; bucket_size; value_bits; shift_polys; drbg }

(* The §3.3 shift value s(g) = |D_V|^(f(g) mod B) — Table 3's E_Gender
   column contents (exposed for tests and pedagogy). *)
let shift_value (c : client) (g : Value.t) : Z.t =
  Z.shift_left Z.one (c.value_bits * Mapping.offset c.mapping g)

type enc_row = {
  value_cts : Bgn.c1 array;     (* per channel: Enc(v mod d_c) — E_Salary *)
  monomial_cts : Bgn.c1 array;  (* Enc(x^e), e = 1..B−1 — E_Gender monomials *)
  bucket : int;
}

let int_pow x e =
  let rec go acc e = if e = 0 then acc else go (acc * x) (e - 1) in
  go 1 e

let enc_row (c : client) ~(value : int) ~(group : Value.t) : enc_row =
  let pk = c.kp.Bgn.pk in
  let x = Mapping.offset c.mapping group in
  { value_cts = Array.map (fun r -> Bgn.enc1_int pk c.drbg r) (Crt.encode_int c.channels value);
    monomial_cts =
      Array.init (c.bucket_size - 1) (fun e -> Bgn.enc1_int pk c.drbg (int_pow x (e + 1)));
    bucket = Mapping.bucket c.mapping group }

(* Server: derive the per-channel encrypted shift of a row by evaluating
   the packed polynomial over the monomials — a signed combination with
   the constant term [const] (a point). *)
let shift_terms (c : client) (row : enc_row) (channel : int) const : (Z.t * Bgn.c1) list =
  let coeffs = c.shift_polys.(channel) in
  const :: List.mapi (fun e mono -> (coeffs.(e + 1), mono)) (Array.to_list row.monomial_cts)

type bucket_aggregate = {
  agg_bucket : int;
  sum_cts : Bgn.c2 array;    (* per channel: Σ e(value, shift) *)
  count_cts : Bgn.c1 array;  (* per channel: Σ shift (level 1) *)
  agg_rows : int;
}

(* Server-side aggregation of rows already looked up per bucket. *)
let aggregate (c : client) (rows : enc_row list) : bucket_aggregate list =
  let pk = c.kp.Bgn.pk in
  let nch = Crt.channels c.channels in
  (* Each channel's constant term c₀·g, shared by every row. *)
  let const_points =
    Bgn.lincomb1_batch pk (Array.map (fun coeffs -> [ (coeffs.(0), pk.Bgn.g) ]) c.shift_polys)
  in
  let by_bucket : (int, enc_row list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt by_bucket r.bucket with
      | Some l -> l := r :: !l
      | None -> Hashtbl.add by_bucket r.bucket (ref [ r ]))
    rows;
  Hashtbl.fold
    (fun bucket rows acc ->
      let rows = Array.of_list !rows in
      let nrows = Array.length rows in
      (* Every (row, channel) shift, then per channel the COUNT Σ_r shift
         as a second stage over them: one batched inversion per bucket. *)
      let shifts, count_cts =
        Bgn.lincomb1_batch2 pk
          (Array.init (nrows * nch) (fun i ->
               shift_terms c rows.(i / nch) (i mod nch) (Z.one, const_points.(i mod nch))))
          (Array.init nch (fun ch -> List.init nrows (fun r -> (Z.one, (r * nch) + ch))))
      in
      let sum_cts =
        (* One product of pairings (single final exponentiation) per
           channel instead of one pairing per row. *)
        Array.init nch (fun ch ->
            Bgn.mul_many pk
              (List.init nrows (fun r -> (rows.(r).value_cts.(ch), shifts.((r * nch) + ch)))))
      in
      { agg_bucket = bucket; sum_cts; count_cts; agg_rows = nrows } :: acc)
    by_bucket []
  |> List.sort (fun a b -> compare a.agg_bucket b.agg_bucket)

type result_row = { group : Value.t; sum : int; count : int }

(* Client: decrypt each channel (dlog bounded by rows·(d−1)² for sums,
   rows·(d−1) for counts), CRT-recombine the packed aggregate, unpack.
   One table per level per call, built for the widest channel's bound,
   solves every channel. *)
let decrypt (c : client) (aggs : bucket_aggregate list) ~(total_rows : int) : result_row list =
  let block_mod = Z.shift_left Z.one c.value_bits in
  let count_max d = total_rows * (d - 1) and sum_max d = total_rows * (d - 1) * (d - 1) in
  let d_max = Array.fold_left max 0 c.channels.Crt.moduli in
  let t1 = lazy (Bgn.make_dec1_table c.kp ~max:(count_max d_max)) in
  let t2 = lazy (Bgn.make_dec2_table c.kp ~max:(sum_max d_max)) in
  let out = ref [] in
  List.iter
    (fun ba ->
      let sum_channels =
        Array.mapi
          (fun ch ct ->
            let max = sum_max c.channels.Crt.moduli.(ch) in
            Option.value (Bgn.dec2 c.kp (Lazy.force t2) ~max ct) ~default:0)
          ba.sum_cts
      in
      let count_channels =
        Array.mapi
          (fun ch ct ->
            let max = count_max c.channels.Crt.moduli.(ch) in
            Option.value (Bgn.dec1 c.kp (Lazy.force t1) ~max ct) ~default:0)
          ba.count_cts
      in
      let packed_sum = Crt.decode c.channels sum_channels in
      let packed_count = Crt.decode c.channels count_channels in
      for offset = 0 to c.bucket_size - 1 do
        match Mapping.value_at c.mapping ~bucket:ba.agg_bucket ~offset with
        | None -> ()
        | Some group ->
          let part packed =
            Z.to_int_exn (Z.erem (Z.shift_right packed (c.value_bits * offset)) block_mod)
          in
          let count = part packed_count in
          if count > 0 then out := { group; sum = part packed_sum; count } :: !out
      done)
    aggs;
  List.sort (fun a b -> Value.compare a.group b.group) !out
