(* Wire codecs for SAGMA's key material, encrypted tables, tokens and
   aggregates — the serialization layer under the client/server protocol
   (lib/protocol) and the persistence commands of the CLI.

   Public values (encrypted tables, tokens, aggregates) and the secret
   client state have separate entry points; the latter's output must be
   kept confidential. BGN public keys travel as (n, g, h): decoding
   reconstructs the pairing group deterministically from n (one sieved
   prime search) and computes nothing else — no pairing, and no
   encryption tables, which only a key that encrypts builds. *)

module W = Sagma_wire.Wire
module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Curve = Sagma_pairing.Curve
module Fp2 = Sagma_pairing.Fp2
module Pairing = Sagma_pairing.Pairing
module Bgn = Sagma_bgn.Bgn
module Crt = Sagma_bgn.Crt_channels
module Sse = Sagma_sse.Sse
module Drbg = Sagma_crypto.Drbg

(* --- decode-side sanity bounds ---------------------------------------------

   Decoders promise to raise only [Wire.Decode_error] on malformed input
   (the wire fuzzer in test/test_prop_wire.ml holds them to it). Semantic
   constructors invoked during decoding (Config.make, Crt.make,
   Pairing.make_group, Mapping.of_order) signal bad parameters with
   Invalid_argument/Failure instead; [guard] translates those. The
   explicit bounds below stop a corrupted frame from driving decode-time
   computation out of all proportion before any validation could fail:
   reconstructing a pairing group runs a prime search in the size of n,
   and the monomial index is combinatorial in (l, B, t). *)

let max_pk_bits = ref 4096

let monomial_budget = 1_000_000

(* m(l,t) = Σ_{i=1..t} C(l,i)(B−1)^i, in float so absurd parameters
   saturate instead of overflowing. *)
let monomial_count_estimate ~(l : int) ~(b : int) ~(t : int) : float =
  let bf = float_of_int (Stdlib.max 0 (b - 1)) in
  let total = ref 0. in
  let c = ref 1. in
  for i = 1 to Stdlib.min t l do
    c := !c *. float_of_int (l - i + 1) /. float_of_int i;
    total := !total +. (!c *. (bf ** float_of_int i))
  done;
  !total

let guard (what : string) (f : unit -> 'a) : 'a =
  try f () with
  | Invalid_argument msg | Failure msg -> W.fail "%s: %s" what msg
  | Division_by_zero -> W.fail "%s: division by zero" what

(* --- primitive codecs ------------------------------------------------------ *)

let put_z (s : W.sink) (z : Z.t) : unit =
  W.put_u8 s (match Z.sign z with -1 -> 2 | 0 -> 0 | _ -> 1);
  W.put_bytes s (Z.to_bytes_be z)

let get_z (s : W.source) : Z.t =
  let sign = W.get_u8 s in
  let mag = Z.of_bytes_be (W.get_bytes s) in
  match sign with
  | 0 -> Z.zero
  | 1 -> mag
  | 2 -> Z.neg mag
  | v -> W.fail "bad bigint sign %d" v

let put_point (s : W.sink) (p : Curve.point) : unit =
  match p with
  | Curve.Infinity -> W.put_u8 s 0
  | Curve.Affine (x, y) ->
    W.put_u8 s 1;
    put_z s x;
    put_z s y

let get_point (s : W.source) : Curve.point =
  match W.get_u8 s with
  | 0 -> Curve.Infinity
  | 1 ->
    let x = get_z s in
    let y = get_z s in
    Curve.Affine (x, y)
  | v -> W.fail "bad point tag %d" v

let put_fp2 (s : W.sink) (v : Fp2.t) : unit =
  put_z s v.Fp2.re;
  put_z s v.Fp2.im

let get_fp2 (s : W.source) : Fp2.t =
  let re = get_z s in
  let im = get_z s in
  { Fp2.re; im }

let put_value (s : W.sink) (v : Value.t) : unit =
  match v with
  | Value.Int i ->
    W.put_u8 s 0;
    W.put_int s i
  | Value.Str str ->
    W.put_u8 s 1;
    W.put_bytes s str

let get_value (s : W.source) : Value.t =
  match W.get_u8 s with
  | 0 -> Value.Int (W.get_int s)
  | 1 -> Value.Str (W.get_bytes s)
  | v -> W.fail "bad value tag %d" v

(* --- BGN public key --------------------------------------------------------- *)

let put_bgn_pk (s : W.sink) (pk : Bgn.public_key) : unit =
  put_z s pk.Bgn.group.Pairing.n;
  put_point s pk.Bgn.g;
  put_point s pk.Bgn.h

let get_bgn_pk (s : W.source) : Bgn.public_key =
  let n = get_z s in
  let g = get_point s in
  let h = get_point s in
  if Z.sign n <= 0 || Z.is_even n then W.fail "bad BGN modulus (must be odd and positive)";
  if Z.num_bits n > !max_pk_bits then
    W.fail "BGN modulus of %d bits exceeds the %d-bit decode limit" (Z.num_bits n) !max_pk_bits;
  guard "bad BGN public key" (fun () -> Bgn.make_pk (Pairing.make_group n) ~g ~h)

(* --- configuration and public parameters ------------------------------------- *)

let put_config (s : W.sink) (c : Config.t) : unit =
  W.put_int s c.Config.bucket_size;
  W.put_int s c.Config.max_group_attrs;
  W.put_list s (fun s v -> W.put_bytes s v) c.Config.value_columns;
  W.put_list s (fun s v -> W.put_bytes s v) c.Config.group_columns;
  W.put_list s (fun s v -> W.put_bytes s v) c.Config.filter_columns;
  W.put_list s (fun s v -> W.put_bytes s v) c.Config.range_filter_columns;
  W.put_int s c.Config.range_bits;
  W.put_int s c.Config.bgn_bits;
  W.put_int s c.Config.channel_bits;
  W.put_int s c.Config.value_bits

let get_config (s : W.source) : Config.t =
  let bucket_size = W.get_int s in
  let max_group_attrs = W.get_int s in
  let value_columns = W.get_list s W.get_bytes in
  let group_columns = W.get_list s W.get_bytes in
  let filter_columns = W.get_list s W.get_bytes in
  let range_filter_columns = W.get_list s W.get_bytes in
  let range_bits = W.get_int s in
  let bgn_bits = W.get_int s in
  let channel_bits = W.get_int s in
  let value_bits = W.get_int s in
  guard "bad config" (fun () ->
      Config.make ~bucket_size ~max_group_attrs ~filter_columns ~range_filter_columns ~range_bits
        ~bgn_bits ~channel_bits ~value_bits ~value_columns ~group_columns ())

let put_public_params (s : W.sink) (pp : Scheme.public_params) : unit =
  put_config s pp.Scheme.config;
  put_bgn_pk s pp.Scheme.bgn_pk;
  W.put_array s (fun s d -> W.put_int s d) pp.Scheme.channels.Crt.moduli;
  W.put_array s (fun s b -> W.put_int s b) pp.Scheme.num_buckets

let get_public_params (s : W.source) : Scheme.public_params =
  let config = get_config s in
  let bgn_pk = get_bgn_pk s in
  let moduli = W.get_array s W.get_int in
  let num_buckets = W.get_array s W.get_int in
  let l = Config.num_group_columns config in
  let b = config.Config.bucket_size in
  let t = config.Config.max_group_attrs in
  if monomial_count_estimate ~l ~b ~t > float_of_int monomial_budget then
    W.fail "monomial index m(%d,%d) with B=%d exceeds the decode budget" l t b;
  guard "bad public parameters" (fun () ->
      { Scheme.config;
        bgn_pk;
        channels = Crt.make moduli;
        monomials = Monomials.make ~num_columns:l ~bucket_size:b ~threshold:t;
        num_buckets })

(* --- encrypted rows, SSE index, encrypted table -------------------------------- *)

let put_enc_row (s : W.sink) (r : Scheme.enc_row) : unit =
  W.put_array s (fun s chs -> W.put_array s put_point chs) r.Scheme.values;
  put_point s r.Scheme.count_ct;
  W.put_array s put_point r.Scheme.monomial_cts

let get_enc_row (s : W.source) : Scheme.enc_row =
  let values = W.get_array s (fun s -> W.get_array s get_point) in
  let count_ct = get_point s in
  let monomial_cts = W.get_array s get_point in
  (* Precomputation caches are never on the wire: they are rebuilt
     lazily on first aggregation over the decoded table. *)
  { Scheme.values;
    count_ct;
    monomial_cts;
    pre_values = Array.map (fun chs -> Array.make (Array.length chs) None) values;
    pre_count = None }

let put_sse_index (s : W.sink) (i : Sse.index) : unit =
  W.put_u32 s (Sse.size i);
  W.put_list s
    (fun s (k, v) ->
      W.put_bytes s k;
      W.put_bytes s v)
    (Sse.entries i)

let get_sse_index (s : W.source) : Sse.index =
  (* The posting count is redundant with the pair list that follows. *)
  ignore (W.get_u32 s);
  Sse.of_entries
    (W.get_list s (fun s ->
         let k = W.get_bytes s in
         let v = W.get_bytes s in
         (k, v)))

(* --- OXT components ------------------------------------------------------ *)

module Oxt = Sagma_sse.Oxt

let put_oxt_stag (s : W.sink) (st : Oxt.stag) : unit =
  W.put_bytes s st.Oxt.s_keyword_key;
  W.put_bytes s st.Oxt.s_mask_key

let get_oxt_stag (s : W.source) : Oxt.stag =
  let s_keyword_key = W.get_bytes s in
  let s_mask_key = W.get_bytes s in
  { Oxt.s_keyword_key; s_mask_key }

let put_oxt_index (s : W.sink) (i : Oxt.index) : unit =
  let tset, xset = Oxt.entries i in
  W.put_list s
    (fun s (label, entry) ->
      W.put_bytes s label;
      W.put_bytes s entry.Oxt.e;
      put_z s entry.Oxt.y)
    tset;
  W.put_list s (fun s k -> W.put_bytes s k) xset

let get_oxt_index (s : W.source) : Oxt.index =
  let tset =
    W.get_list s (fun s ->
        let label = W.get_bytes s in
        let e = W.get_bytes s in
        let y = get_z s in
        (label, { Oxt.e; y }))
  in
  Oxt.of_entries (tset, W.get_list s W.get_bytes)

let put_enc_table (s : W.sink) (t : Scheme.enc_table) : unit =
  put_public_params s t.Scheme.pp;
  W.put_array s put_enc_row t.Scheme.rows;
  put_sse_index s t.Scheme.index;
  W.put_u8 s (match t.Scheme.count_mode with Scheme.Count_level1 -> 0 | Scheme.Count_paired -> 1);
  W.put_u8 s
    (match t.Scheme.index_mode with
     | Scheme.Per_attribute -> 0
     | Scheme.Joint -> 1
     | Scheme.Oxt_conjunctive -> 2);
  W.put_option s put_oxt_index t.Scheme.oxt_index

let get_enc_table (s : W.source) : Scheme.enc_table =
  let pp = get_public_params s in
  let rows = W.get_array s get_enc_row in
  let index = get_sse_index s in
  let count_mode =
    match W.get_u8 s with
    | 0 -> Scheme.Count_level1
    | 1 -> Scheme.Count_paired
    | v -> W.fail "bad count mode %d" v
  in
  let index_mode =
    match W.get_u8 s with
    | 0 -> Scheme.Per_attribute
    | 1 -> Scheme.Joint
    | 2 -> Scheme.Oxt_conjunctive
    | v -> W.fail "bad index mode %d" v
  in
  let oxt_index = W.get_option s get_oxt_index in
  { Scheme.pp; rows; index; oxt_index; count_mode; index_mode }

(* --- tokens ---------------------------------------------------------------------- *)

let put_sse_token (s : W.sink) (t : Sse.token) : unit =
  W.put_bytes s t.Sse.t_label;
  W.put_bytes s t.Sse.t_mask

let get_sse_token (s : W.source) : Sse.token =
  let t_label = W.get_bytes s in
  let t_mask = W.get_bytes s in
  { Sse.t_label; t_mask }

let put_token (s : W.sink) (t : Scheme.token) : unit =
  W.put_option s (fun s v -> W.put_int s v) t.Scheme.value_column;
  W.put_array s (fun s v -> W.put_int s v) t.Scheme.group_columns;
  (match t.Scheme.source with
   | Scheme.Per_attribute_tokens per ->
     W.put_u8 s 0;
     W.put_array s (fun s per_bucket -> W.put_array s put_sse_token per_bucket) per
   | Scheme.Joint_tokens entries ->
     W.put_u8 s 1;
     W.put_array s
       (fun s (buckets, tok) ->
         W.put_array s (fun s b -> W.put_int s b) buckets;
         put_sse_token s tok)
       entries
   | Scheme.Oxt_tokens entries ->
     W.put_u8 s 2;
     W.put_array s
       (fun s (buckets, st, xtoks) ->
         W.put_array s (fun s b -> W.put_int s b) buckets;
         put_oxt_stag s st;
         W.put_array s (fun s row -> W.put_array s put_point row) xtoks)
       entries);
  W.put_list s put_sse_token t.Scheme.filter_tokens;
  W.put_list s (fun s g -> W.put_list s put_sse_token g) t.Scheme.range_token_groups;
  W.put_array s (fun s v -> W.put_int s v) t.Scheme.t_num_buckets

let get_token (s : W.source) : Scheme.token =
  let value_column = W.get_option s W.get_int in
  let group_columns = W.get_array s W.get_int in
  let source =
    match W.get_u8 s with
    | 0 -> Scheme.Per_attribute_tokens (W.get_array s (fun s -> W.get_array s get_sse_token))
    | 1 ->
      Scheme.Joint_tokens
        (W.get_array s (fun s ->
             let buckets = W.get_array s W.get_int in
             let tok = get_sse_token s in
             (buckets, tok)))
    | 2 ->
      Scheme.Oxt_tokens
        (W.get_array s (fun s ->
             let buckets = W.get_array s W.get_int in
             let st = get_oxt_stag s in
             let xtoks = W.get_array s (fun s -> W.get_array s get_point) in
             (buckets, st, xtoks)))
    | v -> W.fail "bad bucket source tag %d" v
  in
  let filter_tokens = W.get_list s get_sse_token in
  let range_token_groups = W.get_list s (fun s -> W.get_list s get_sse_token) in
  let t_num_buckets = W.get_array s W.get_int in
  { Scheme.value_column; group_columns; source; filter_tokens; range_token_groups; t_num_buckets }

(* --- aggregates -------------------------------------------------------------------- *)

let put_block_aggregates (s : W.sink) (b : Scheme.block_aggregates) : unit =
  W.put_option s (fun s sums -> W.put_array s (fun s chs -> W.put_array s put_fp2 chs) sums)
    b.Scheme.sums;
  W.put_option s (fun s c -> W.put_array s put_point c) b.Scheme.counts_l1;
  W.put_option s (fun s c -> W.put_array s put_fp2 c) b.Scheme.counts_l2

let get_block_aggregates (s : W.source) : Scheme.block_aggregates =
  let sums = W.get_option s (fun s -> W.get_array s (fun s -> W.get_array s get_fp2)) in
  let counts_l1 = W.get_option s (fun s -> W.get_array s get_point) in
  let counts_l2 = W.get_option s (fun s -> W.get_array s get_fp2) in
  { Scheme.sums; counts_l1; counts_l2 }

let put_bucket_aggregate (s : W.sink) (b : Scheme.bucket_aggregate) : unit =
  W.put_array s (fun s v -> W.put_int s v) b.Scheme.bucket_ids;
  W.put_int s b.Scheme.group_size;
  put_block_aggregates s b.Scheme.blocks

let get_bucket_aggregate (s : W.source) : Scheme.bucket_aggregate =
  let bucket_ids = W.get_array s W.get_int in
  let group_size = W.get_int s in
  let blocks = get_block_aggregates s in
  { Scheme.bucket_ids; group_size; blocks }

let put_agg_result (s : W.sink) (a : Scheme.agg_result) : unit =
  W.put_list s put_bucket_aggregate a.Scheme.buckets;
  W.put_int s a.Scheme.touched_rows

let get_agg_result (s : W.source) : Scheme.agg_result =
  let buckets = W.get_list s get_bucket_aggregate in
  let touched_rows = W.get_int s in
  { Scheme.buckets; touched_rows }

(* --- secret client state -------------------------------------------------------------

   Contains the BGN factorization, the SSE key and the secret mappings:
   treat the output like a private key file. *)

let put_client (s : W.sink) (c : Scheme.client) : unit =
  put_public_params s c.Scheme.pp;
  put_z s c.Scheme.kp.Bgn.sk.Bgn.q1;
  put_z s c.Scheme.kp.Bgn.sk.Bgn.q2;
  W.put_bytes s c.Scheme.sse_key;
  W.put_bytes s c.Scheme.oxt_key.Oxt.k_t;
  W.put_bytes s c.Scheme.oxt_key.Oxt.k_x;
  W.put_bytes s c.Scheme.oxt_key.Oxt.k_i;
  W.put_bytes s c.Scheme.oxt_key.Oxt.k_z;
  W.put_array s (fun s m -> W.put_list s put_value (Mapping.domain m)) c.Scheme.mappings

(* [get_client data ~drbg] restores a client; [drbg] supplies fresh
   randomness for future encryptions (the stream position of the original
   DRBG is deliberately not persisted). *)
let get_client ~(drbg : Drbg.t) (s : W.source) : Scheme.client =
  let pp = get_public_params s in
  let q1 = get_z s in
  let q2 = get_z s in
  let sse_key = W.get_bytes s in
  let k_t = W.get_bytes s in
  let k_x = W.get_bytes s in
  let k_i = W.get_bytes s in
  let k_z = W.get_bytes s in
  let orders = W.get_array s (fun s -> W.get_list s get_value) in
  let mappings =
    guard "bad mapping" (fun () ->
        Array.map (Mapping.of_order ~bucket_size:pp.Scheme.config.Config.bucket_size) orders)
  in
  { Scheme.pp;
    kp = { Bgn.pk = pp.Scheme.bgn_pk; sk = { Bgn.q1; q2 } };
    sse_key;
    oxt_key = { Oxt.k_t; k_x; k_i; k_z };
    mappings;
    drbg;
    dec1_tables = None;
    dec2_tables = None }

(* --- convenience whole-value entry points ----------------------------------------------- *)

let enc_table_to_string (t : Scheme.enc_table) : string = W.encode put_enc_table t
let enc_table_of_string (s : string) : Scheme.enc_table = W.decode get_enc_table s
let token_to_string (t : Scheme.token) : string = W.encode put_token t
let token_of_string (s : string) : Scheme.token = W.decode get_token s
let agg_result_to_string (a : Scheme.agg_result) : string = W.encode put_agg_result a
let agg_result_of_string (s : string) : Scheme.agg_result = W.decode get_agg_result s
let client_to_string (c : Scheme.client) : string = W.encode put_client c
let client_of_string ~drbg (s : string) : Scheme.client = W.decode (get_client ~drbg) s
