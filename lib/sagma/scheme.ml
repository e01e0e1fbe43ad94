(* The full SAGMA construction (§3.4, Algorithms 1–6).

   Client-side state: a BGN keypair, an SSE key and one secret mapping per
   group column. Server-side state: per row, BGN level-1 encryptions of
   (a) each value column split into CRT residue channels, (b) a hidden
   count column fixed to 1 (0 for dummy rows) and (c) the monomials of the
   bucketized group offsets; plus an SSE index over bucket identifiers and
   filter keywords.

   Query processing (AggGrpBy): the server locates each queried bucket's
   rows through SSE, intersects them into joint buckets, derives every
   row's unit-shift indicator values S_r^{(j)} by evaluating public
   Lagrange coefficients over the encrypted monomials (additive
   homomorphism only), and pairs them with the value/count ciphertexts —
   the scheme's single ciphertext multiplication — before summing in the
   target group. The client decrypts each aggregate with a bounded
   discrete log and recombines CRT channels.

   The server never sees a group value, only bucket identifiers: the
   leakage is exactly L of §4.2. *)

module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module Bgn = Sagma_bgn.Bgn
module Crt = Sagma_bgn.Crt_channels
module Sse = Sagma_sse.Sse
module Oxt = Sagma_sse.Oxt
module Curve = Sagma_pairing.Curve
module Obs = Sagma_obs.Metrics
module Trace = Sagma_obs.Trace
module Audit = Sagma_obs.Audit
module Pool = Sagma_pool.Pool

(* Scheme-level observability: row/bucket volumes plus per-chunk wall
   clock for the parallel accumulation path (chunks run on spawned
   domains, where spans are off-limits). *)
let m_enc_rows = Obs.counter "scheme.enc.rows"
let m_agg_rows = Obs.counter "scheme.agg.rows"
let m_agg_buckets = Obs.counter "scheme.agg.joint_buckets"
let m_precomp_hits = Obs.counter "pairing.precomp_hits"
let h_chunk_ms = Obs.histogram "scheme.agg.chunk_ms"

(* --- public parameters and keys (Algorithm 1: Setup) -------------------- *)

(* Shared OXT group parameters: public, deterministic, independent of any
   key. Lazy so the underlying prime search runs only when the OXT index
   mode is actually used. *)
let oxt_params_lazy = lazy (Oxt.make_params ())
let oxt_params () = Lazy.force oxt_params_lazy

type public_params = {
  config : Config.t;
  bgn_pk : Bgn.public_key;
  channels : Crt.t;
  monomials : Monomials.t;
  num_buckets : int array;  (* s_i = ⌈|D_i| / B⌉ per group column *)
}

type client = {
  pp : public_params;
  kp : Bgn.keypair;
  sse_key : Sse.key;
  oxt_key : Oxt.key;            (* for the Oxt_conjunctive index mode *)
  mappings : Mapping.t array;   (* f_i, one per group column *)
  drbg : Drbg.t;
  (* decryption tables, lazily built and reused across queries *)
  mutable dec1_tables : (int * Bgn.dec1_table) list;
  mutable dec2_tables : (int * Bgn.dec2_table) list;
}

(* [setup config ~domains drbg] runs Algorithm 1. [domains] must cover
   every group column with its full value domain. [mapping_strategy] keys
   the §5 bucket-partitioning choice. *)
let setup ?(mapping_strategy = fun (_ : string) -> Mapping.Prf_random) (config : Config.t)
    ~(domains : (string * Value.t list) list) (drbg : Drbg.t) : client =
  let kp = Bgn.keygen ~bits:config.Config.bgn_bits drbg in
  let sse_key = Sse.gen drbg in
  let master = Sagma_crypto.Prf.gen_key drbg in
  let mappings =
    Array.of_list
      (List.map
         (fun col ->
           let domain =
             match List.assoc_opt col domains with
             | Some d -> d
             | None -> invalid_arg (Printf.sprintf "Scheme.setup: no domain for group column %S" col)
           in
           let key = Sagma_crypto.Prf.derive master ~domain:("mapping:" ^ col) in
           Mapping.make (mapping_strategy col) key domain ~bucket_size:config.Config.bucket_size)
         config.Config.group_columns)
  in
  (* CRT capacity: a sum of up to 2^24 rows of value_bits-sized values. *)
  let channels =
    Crt.choose ~channel_bits:config.Config.channel_bits
      ~capacity_bits:(config.Config.value_bits + 24)
  in
  let monomials =
    Monomials.make
      ~num_columns:(Config.num_group_columns config)
      ~bucket_size:config.Config.bucket_size
      ~threshold:config.Config.max_group_attrs
  in
  let num_buckets = Array.map Mapping.num_buckets mappings in
  let oxt_key = Oxt.gen drbg in
  { pp = { config; bgn_pk = kp.Bgn.pk; channels; monomials; num_buckets };
    kp; sse_key; oxt_key; mappings; drbg; dec1_tables = []; dec2_tables = [] }

(* --- encrypted rows and tables (Algorithms 2–3) -------------------------- *)

type enc_row = {
  values : Bgn.c1 array array;  (* k × channels: Enc(v_j mod d_c) *)
  count_ct : Bgn.c1;            (* Enc(1); Enc(0) for dummy rows *)
  monomial_cts : Bgn.c1 array;  (* Enc(Π offsets^e) in storage order *)
  (* Pairing precomputation caches, one slot per value/count ciphertext,
     filled lazily on first use in [aggregate] and reused across blocks
     and queries. Never serialized: rebuilt after decoding (one Miller
     ladder each — cheaper than a single pairing). Updates from pool
     worker domains race benignly: slots only ever go None → Some of an
     immutable value, so the worst case is duplicated precomputation. *)
  pre_values : Bgn.precomp1 option array array;
  mutable pre_count : Bgn.precomp1 option;
}

type count_mode = Count_level1 | Count_paired
(* Level-1 counting aggregates the indicators directly (the paper's "count
   aggregates the shifts") — one curve addition per row, no pairing. It
   counts dummy rows too, so tables padded with dummies switch to paired
   counting against the hidden count column (dummies encrypt 0 there). *)

type index_mode = Per_attribute | Joint | Oxt_conjunctive
(* [Per_attribute] is the paper's Algorithm 2: one SSE keyword per
   (column, bucket); the server intersects posting lists, learning each
   queried attribute's bucket membership individually.

   [Joint] realizes §3.4's remark that "an SSE scheme that supports
   Boolean queries can be used to determine joint bucket membership
   without leaking the bucket membership of individual attributes": one
   keyword per (column subset of size ≤ t, joint bucket vector). A query
   then touches exactly its own combination's buckets and the server
   never sees per-attribute memberships — at a storage cost of
   Σ_{i≤t} C(l,i) postings per row instead of l.

   [Oxt_conjunctive] reaches the same goal with O(l) storage through the
   OXT Boolean-SSE protocol (Cash et al. [6]): bucket membership lives in
   an OXT TSet/XSet, joint membership is resolved by a cross-tag
   conjunction. Leakage sits between the other two modes: the s-term
   column's bucket access pattern plus which of its rows satisfy the
   conjunction. *)

type enc_table = {
  pp : public_params;
  rows : enc_row array;
  index : Sse.index;            (* Π_bas index: filters (+ buckets unless OXT) *)
  oxt_index : Oxt.index option; (* bucket membership in Oxt_conjunctive mode *)
  count_mode : count_mode;
  index_mode : index_mode;
}

(* Encrypt one row given its value-column entries and its group-column
   bucket offsets (Algorithm 3). *)
let enc_row_raw (c : client) ~(values : int array) ~(offsets : int array) ~(dummy : bool) : enc_row =
  let pp = c.pp in
  let pk = pp.bgn_pk in
  let enc_values =
    Array.map
      (fun v ->
        if v < 0 then invalid_arg "Scheme.enc_row: negative value";
        Array.map (fun r -> Bgn.enc1_int pk c.drbg r) (Crt.encode_int pp.channels v))
      values
  in
  let count_ct = Bgn.enc1_int pk c.drbg (if dummy then 0 else 1) in
  let monomial_cts =
    Array.map
      (fun e -> Bgn.enc1 pk c.drbg (Monomials.eval_monomial e offsets))
      pp.monomials.Monomials.vectors
  in
  { values = enc_values;
    count_ct;
    monomial_cts;
    pre_values = Array.map (fun chans -> Array.make (Array.length chans) None) enc_values;
    pre_count = None }

let bucket_keyword ~(column : int) ~(bucket : int) : string =
  Printf.sprintf "grp:%d:%d" column bucket

(* Joint-bucket keyword for a column subset and its bucket-id vector;
   canonicalized by column so query order does not matter. *)
let joint_keyword ~(columns : int array) ~(buckets : int array) : string =
  let pairs = Array.init (Array.length columns) (fun i -> (columns.(i), buckets.(i))) in
  Array.sort compare pairs;
  Printf.sprintf "jgrp:%s:%s"
    (String.concat "," (Array.to_list (Array.map (fun (c, _) -> string_of_int c) pairs)))
    (String.concat "," (Array.to_list (Array.map (fun (_, b) -> string_of_int b) pairs)))

(* Subsets of {0..l-1} of size in [1, t], each as a sorted int array. *)
let column_subsets ~(l : int) ~(t : int) : int array array =
  let out = ref [] in
  let rec go from current size =
    if size > 0 then
      for i = from to l - 1 do
        let current = i :: current in
        out := Array.of_list (List.rev current) :: !out;
        go (i + 1) current (size - 1)
      done
  in
  go 0 [] t;
  Array.of_list (List.rev !out)

let filter_keyword ~(column : string) (v : Value.t) : string =
  Printf.sprintf "flt:%s:%s" column (Value.encode v)

(* Dyadic-interval keyword for range filtering (Faber-et-al.-style cover
   over single-keyword SSE). *)
let range_keyword ~(column : string) (i : Sagma_sse.Dyadic.interval) : string =
  Printf.sprintf "rng:%s:%s" column (Sagma_sse.Dyadic.keyword_tag i)

let filter_keywords (c : client) (filters : (string * Value.t) list) ~(caller : string) :
    string list =
  List.map
    (fun (col, v) ->
      if not (List.mem col c.pp.config.Config.filter_columns) then
        invalid_arg (Printf.sprintf "Scheme.%s: %S is not a filter column" caller col);
      filter_keyword ~column:col v)
    filters

let range_keywords (c : client) (range_values : (string * int) list) ~(caller : string) :
    string list =
  List.concat_map
    (fun (col, v) ->
      if not (List.mem col c.pp.config.Config.range_filter_columns) then
        invalid_arg (Printf.sprintf "Scheme.%s: %S is not a range filter column" caller col);
      List.map
        (fun interval -> range_keyword ~column:col interval)
        (Sagma_sse.Dyadic.keywords_for_value ~depth:c.pp.config.Config.range_bits v))
    range_values

(* EncRow: Algorithm 3 plus the row's place in the index. Returns the
   encrypted row, the keywords it is posted under in the Π_bas index
   (its grouping keywords unless OXT, then its filter and range
   keywords) and, in OXT mode, the bucket keywords it is posted under in
   the TSet/XSet. Uploads, local appends and remote appends all go
   through here, so they agree on where a row is posted. *)
let encrypt_row (c : client) ~(caller : string) (index_mode : index_mode) ~(values : int array)
    ~(groups : Value.t array) ~(filters : (string * Value.t) list)
    ~(range_values : (string * int) list) ~(dummy : bool) : enc_row * string list * string list =
  let config = c.pp.config in
  let l = Config.num_group_columns config in
  if Array.length values <> Config.num_value_columns config then
    invalid_arg (Printf.sprintf "Scheme.%s: value arity mismatch" caller);
  if Array.length groups <> l then
    invalid_arg (Printf.sprintf "Scheme.%s: group arity mismatch" caller);
  let aux = filter_keywords c filters ~caller @ range_keywords c range_values ~caller in
  let offsets = Array.mapi (fun i g -> Mapping.offset c.mappings.(i) g) groups in
  let row = enc_row_raw c ~values ~offsets ~dummy in
  let bucket i = Mapping.bucket c.mappings.(i) groups.(i) in
  let buckets = List.init l (fun i -> bucket_keyword ~column:i ~bucket:(bucket i)) in
  match index_mode with
  | Per_attribute -> (row, buckets @ aux, [])
  | Joint ->
    let joint columns = joint_keyword ~columns ~buckets:(Array.map bucket columns) in
    let subsets = column_subsets ~l ~t:config.Config.max_group_attrs in
    (row, List.map joint (Array.to_list subsets) @ aux, [])
  | Oxt_conjunctive -> (row, aux, buckets)

(* [encrypt_table c table ~dummy_groups] runs Algorithm 2: EncRow over
   every row of the plaintext [table] (its filter and range keywords read
   from the row), then one all-zero dummy row per entry of
   [dummy_groups] (each an array of group-column values, §5; no filter or
   range keywords), then the index over the collected postings.
   [index_mode] selects per-attribute bucket keywords (Algorithm 2), the
   joint-bucket index or OXT (see {!index_mode}). *)
let encrypt_table ?(dummy_groups : Value.t array list = []) ?(index_mode = Per_attribute)
    (c : client) (table : Table.t) : enc_table =
  let config = c.pp.config in
  (* [read f cols row]: the row's (column, f cell) pairs for [cols]. *)
  let read f cols =
    let idxs = List.map (fun col -> (col, Table.column_index table col)) cols in
    fun row -> List.map (fun (col, i) -> (col, f row.(i))) idxs
  in
  let values = read Value.as_int config.Config.value_columns
  and groups = read Fun.id config.Config.group_columns
  and filters = read Fun.id config.Config.filter_columns
  and range_values = read Value.as_int config.Config.range_filter_columns in
  let cells cols row = Array.of_list (List.map snd (cols row)) in
  let real =
    List.map
      (fun row ->
        encrypt_row c ~caller:"encrypt_table" index_mode ~values:(cells values row)
          ~groups:(cells groups row) ~filters:(filters row) ~range_values:(range_values row)
          ~dummy:false)
      (Table.rows table)
  in
  let dummies =
    List.map
      (fun groups ->
        encrypt_row c ~caller:"encrypt_table" index_mode
          ~values:(Array.make (Config.num_value_columns config) 0)
          ~groups ~filters:[] ~range_values:[] ~dummy:true)
      dummy_groups
  in
  let encrypted = Array.of_list (real @ dummies) in
  Obs.add m_enc_rows (Array.length encrypted);
  (* Keyword → ascending row ids, for either index. *)
  let postings keywords_of =
    let tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun r e ->
        List.iter
          (fun kw ->
            match Hashtbl.find_opt tbl kw with
            | Some ids -> ids := r :: !ids
            | None -> Hashtbl.add tbl kw (ref [ r ]))
          (keywords_of e))
      encrypted;
    List.sort compare (Hashtbl.fold (fun kw ids acc -> (kw, List.rev !ids) :: acc) tbl [])
  in
  { pp = c.pp;
    rows = Array.map (fun (row, _, _) -> row) encrypted;
    index = Sse.build c.sse_key (postings (fun (_, kws, _) -> kws));
    oxt_index =
      (match index_mode with
       | Per_attribute | Joint -> None
       | Oxt_conjunctive ->
         Some (Oxt.build (oxt_params ()) c.oxt_key (postings (fun (_, _, kws) -> kws))));
    count_mode = (if dummy_groups = [] then Count_level1 else Count_paired);
    index_mode }

(* Database updates (§3/§8: "this algorithm can be used for database
   updates after the initial table encryption if the bucket index I is
   updated correspondingly"): EncRow one new row and extend the SSE
   postings. The per-keyword counters are recovered by replaying the
   keyword search, which only uses key material the client holds. *)
let append_row ?(range_values : (string * int) list = []) (c : client) (et : enc_table)
    ~(values : int array) ~(groups : Value.t array) ~(filters : (string * Value.t) list) :
    enc_table =
  let row, keywords, oxt_keywords =
    encrypt_row c ~caller:"append_row" et.index_mode ~values ~groups ~filters ~range_values
      ~dummy:false
  in
  let id = Array.length et.rows in
  let index =
    List.fold_left
      (fun index kw ->
        let counter = List.length (Sse.search index (Sse.token c.sse_key kw)) in
        Sse.add c.sse_key index kw ~counter id)
      et.index keywords
  in
  let add_oxt oxt kw =
    let counter = Oxt.stag_count oxt (Oxt.stag c.oxt_key kw) in
    Oxt.add (oxt_params ()) c.oxt_key oxt kw ~counter id
  in
  { et with
    rows = Array.append et.rows [| row |];
    index;
    oxt_index = Option.map (fun oxt -> List.fold_left add_oxt oxt oxt_keywords) et.oxt_index }

(* Client-side half of a *remote* append: the encrypted row plus the SSE
   tokens of its keywords. A server holding the encrypted table can
   derive the new postings from the tokens alone (Sse.add_with_token);
   see Sagma_protocol.Server. [index_mode] must match the remote table. *)
let append_payload ?(index_mode = Per_attribute) ?(range_values : (string * int) list = [])
    (c : client) ~(values : int array) ~(groups : Value.t array)
    ~(filters : (string * Value.t) list) : enc_row * Sse.token list =
  if index_mode = Oxt_conjunctive then
    invalid_arg
      "Scheme.append_payload: remote appends need secret OXT keys; append client-side instead";
  let row, keywords, _ =
    encrypt_row c ~caller:"append_payload" index_mode ~values ~groups ~filters ~range_values
      ~dummy:false
  in
  (row, List.map (Sse.token c.sse_key) keywords)

(* --- grouping tokens (Algorithm 4) --------------------------------------- *)

type bucket_source =
  | Per_attribute_tokens of Sse.token array array
      (* per queried column, one token per bucket; the server intersects *)
  | Joint_tokens of (int array * Sse.token) array
      (* one token per joint bucket-id vector; no intersection, and no
         per-attribute membership leaks *)
  | Oxt_tokens of (int array * Oxt.stag * Curve.point array array) array
      (* one OXT conjunction per joint bucket-id vector: the first
         queried column's bucket keyword is the s-term, the rest are
         resolved through cross-tags *)

type token = {
  value_column : int option;           (* index into config.value_columns *)
  group_columns : int array;           (* indices into config.group_columns *)
  source : bucket_source;
  filter_tokens : Sse.token list;      (* equality clauses: intersection *)
  range_token_groups : Sse.token list list;
  (* one group per BETWEEN clause: union within a group (its dyadic
     cover), intersection across groups and with filter_tokens *)
  t_num_buckets : int array;           (* s_q per queried column *)
}

(* [token c q] is Algorithm 4. [index_mode] must match the mode the table
   was encrypted with; [oxt_rows] (required in OXT mode) bounds the
   x-token rows by the table's public row count. *)
let token ?(index_mode = Per_attribute) ?(oxt_rows : int option) (c : client) (q : Query.t) :
    token =
  let config = c.pp.config in
  if List.length q.Query.group_by > config.Config.max_group_attrs then
    invalid_arg
      (Printf.sprintf "Scheme.token: %d grouping attributes exceed threshold t=%d"
         (List.length q.Query.group_by) config.Config.max_group_attrs);
  let group_columns =
    Array.of_list (List.map (Config.group_column_index config) q.Query.group_by)
  in
  let value_column =
    match Query.value_column q.Query.aggregate with
    | None -> None
    | Some col -> Some (Config.value_column_index config col)
  in
  let t_num_buckets = Array.map (fun col -> c.pp.num_buckets.(col)) group_columns in
  let source =
    match index_mode with
    | Per_attribute ->
      Per_attribute_tokens
        (Array.map
           (fun col ->
             let s = c.pp.num_buckets.(col) in
             Array.init s (fun b -> Sse.token c.sse_key (bucket_keyword ~column:col ~bucket:b)))
           group_columns)
    | Joint | Oxt_conjunctive -> begin
      (* One token per element of the cartesian product of the queried
         columns' buckets. *)
      let arity = Array.length group_columns in
      let total = Array.fold_left ( * ) 1 t_num_buckets in
      let decode idx =
        let buckets = Array.make arity 0 in
        let rem = ref idx in
        for i = arity - 1 downto 0 do
          buckets.(i) <- !rem mod t_num_buckets.(i);
          rem := !rem / t_num_buckets.(i)
        done;
        buckets
      in
      match index_mode with
      | Joint ->
        Joint_tokens
          (Array.init total (fun idx ->
               let buckets = decode idx in
               ( buckets,
                 Sse.token c.sse_key (joint_keyword ~columns:group_columns ~buckets) )))
      | Oxt_conjunctive ->
        let rows =
          match oxt_rows with
          | Some r -> r
          | None -> invalid_arg "Scheme.token: OXT mode needs ~oxt_rows (the table's row count)"
        in
        Oxt_tokens
          (Array.init total (fun idx ->
               let buckets = decode idx in
               let keywords =
                 Array.mapi
                   (fun i col -> bucket_keyword ~column:col ~bucket:buckets.(i))
                   group_columns
               in
               let s_term = keywords.(0) in
               let x_terms = Array.to_list (Array.sub keywords 1 (arity - 1)) in
               ( buckets,
                 Oxt.stag c.oxt_key s_term,
                 Oxt.xtokens (oxt_params ()) c.oxt_key ~s_term ~x_terms ~count:rows )))
      | Per_attribute -> assert false
    end
  in
  let filter_tokens =
    List.map (Sse.token c.sse_key) (filter_keywords c q.Query.where ~caller:"token")
  in
  let range_token_groups =
    List.map
      (fun (col, lo, hi) ->
        if not (List.mem col config.Config.range_filter_columns) then
          invalid_arg (Printf.sprintf "Scheme.token: %S is not a range filter column" col);
        List.map
          (fun interval -> Sse.token c.sse_key (range_keyword ~column:col interval))
          (Sagma_sse.Dyadic.cover ~depth:config.Config.range_bits ~lo ~hi))
      q.Query.ranges
  in
  { value_column; group_columns; source; filter_tokens; range_token_groups; t_num_buckets }

(* --- server-side aggregation (Algorithm 5) -------------------------------

   This function deliberately takes only public data: the encrypted table
   (which embeds the public parameters) and a token. *)

(* Audit hooks: every index access [aggregate] performs goes through one
   of these, recording the raw posting list (the access pattern, before
   any WHERE filtering — filtering happens on the server after the read,
   so the read itself is what leaks) under the token's deterministic tag
   (the search pattern). [Leakage] derives the matching prediction from
   the declared leakage function; Audit.check compares the two.
   [audited_search] is exported so tests can drive a forged probe
   through the production recording path. *)

let audited_search ~(kind : string) (index : Sse.index) (t : Sse.token) : int list =
  let rows = Sse.search index t in
  if !Audit.enabled then Audit.probe ~kind ~tag:(Sse.token_id t) ~matches:rows;
  rows

(* Deterministic public identity of an OXT conjunction: the s-term stag's
   keyword-key prefix (shared convention with [Leakage.of_query]). *)
let oxt_stag_tag (st : Oxt.stag) : string =
  Sagma_crypto.Encoding.to_hex (String.sub st.Oxt.s_keyword_key 0 8)

(* OXT conjunction search (sorted row ids) plus an ["oxt.bucket"] probe. *)
let audited_oxt_search (params : Oxt.params) (oxt : Oxt.index) (st : Oxt.stag)
    (xtoks : Curve.point array array) : int list =
  let rows = List.sort compare (Oxt.search params oxt st xtoks) in
  if !Audit.enabled then Audit.probe ~kind:"oxt.bucket" ~tag:(oxt_stag_tag st) ~matches:rows;
  rows

type block_aggregates = {
  sums : Bgn.c2 array array option;  (* per block vector, per channel *)
  counts_l1 : Bgn.c1 array option;   (* per block vector (level-1 mode) *)
  counts_l2 : Bgn.c2 array option;   (* per block vector (paired mode) *)
}

type bucket_aggregate = {
  bucket_ids : int array;   (* one bucket per queried column *)
  group_size : int;         (* rows feeding this joint bucket (leaked) *)
  blocks : block_aggregates;
}

type agg_result = {
  buckets : bucket_aggregate list;
  touched_rows : int;
}

module Int_set = Set.Make (Int)

(* Decompose a block index into the per-column offset vector (mixed radix
   base B, least-significant = last queried column). *)
let block_vector ~(bucket_size : int) ~(arity : int) (idx : int) : int array =
  let v = Array.make arity 0 in
  let rec go i rem =
    if i >= 0 then begin
      v.(i) <- rem mod bucket_size;
      go (i - 1) (rem / bucket_size)
    end
  in
  go (arity - 1) idx;
  v

(* Joint buckets in canonical (lexicographic bucket-vector) order. The
   enumeration order of [joint_bucket_rows] depends on the token source
   and, under sharding, on which rows a node owns — sorting makes the
   encoding deterministic, so a coordinator's ⊕-merge of per-shard
   partials is byte-identical to the single-server answer. *)
let sort_buckets (buckets : bucket_aggregate list) : bucket_aggregate list =
  List.sort (fun a b -> compare a.bucket_ids b.bucket_ids) buckets

(* ⊕ of two partial block aggregates (chunk partials within a bucket,
   or one bucket's per-node partials): a component absent on one side
   passes through. *)
let merge_blocks (pk : Bgn.public_key) (a : block_aggregates) (b : block_aggregates) :
    block_aggregates =
  let merge_opt f a b =
    match (a, b) with
    | Some a, Some b -> Some (f a b)
    | a, None -> a
    | None, b -> b
  in
  {
    sums = merge_opt (Array.map2 (Array.map2 (Bgn.add2 pk))) a.sums b.sums;
    counts_l1 = merge_opt (Array.map2 (Bgn.add1 pk)) a.counts_l1 b.counts_l1;
    counts_l2 = merge_opt (Array.map2 (Bgn.add2 pk)) a.counts_l2 b.counts_l2;
  }

(* [aggregate et tok] is Algorithm 5 (pure server side). Row work within
   each joint bucket is split across the worker domains of [pool] (a
   long-lived pool, spawned once per process). [owned] restricts the pairing work to the rows this node is
   responsible for in a sharded deployment (storage is replicated,
   compute is partitioned): rows failing the predicate are excluded
   before any pairing, and joint buckets left empty are dropped, so the
   per-shard partials ⊕-combine to exactly the unsharded answer. *)
let aggregate ?pool ?owned (et : enc_table) (tok : token) : agg_result =
  let pp = et.pp in
  let pk = pp.bgn_pk in
  let n = Bgn.n pk in
  let config = pp.config in
  let bucket_size = config.Config.bucket_size in
  let arity = Array.length tok.group_columns in
  let num_blocks = int_of_float (float_of_int bucket_size ** float_of_int arity) in
  (* Filter rows first (WHERE composition, §2): intersect the equality
     clauses' results; each range clause contributes the union of its
     dyadic cover. *)
  let filtered =
    Trace.with_span "filter" @@ fun () ->
    let equality_sets =
      List.map
        (fun t -> Int_set.of_list (audited_search ~kind:"sse.filter" et.index t))
        tok.filter_tokens
    in
    let range_sets =
      List.map
        (fun group ->
          List.fold_left
            (fun acc t ->
              Int_set.union acc (Int_set.of_list (audited_search ~kind:"sse.range" et.index t)))
            Int_set.empty group)
        tok.range_token_groups
    in
    match equality_sets @ range_sets with
    | [] -> None
    | s0 :: rest -> Some (List.fold_left Int_set.inter s0 rest)
  in
  let keep r =
    (match filtered with None -> true | Some s -> Int_set.mem r s)
    && (match owned with None -> true | Some f -> f r)
  in
  (* Materialize the joint buckets: per-attribute mode intersects the
     queried columns' bucket posting lists; joint mode reads each joint
     bucket's rows in one SSE query. *)
  let joint_bucket_rows : (int array * int list) list =
    Trace.with_span "bucket_intersection" @@ fun () ->
    match tok.source with
    | Joint_tokens entries ->
      Array.to_list entries
      |> List.filter_map (fun (buckets, t) ->
             match List.filter keep (audited_search ~kind:"sse.bucket" et.index t) with
             | [] -> None
             | rows -> Some (buckets, rows))
    | Oxt_tokens entries ->
      let oxt =
        match et.oxt_index with
        | Some oxt -> oxt
        | None -> invalid_arg "Scheme.aggregate: OXT token against a non-OXT table"
      in
      let params = oxt_params () in
      Array.to_list entries
      |> List.filter_map (fun (buckets, st, xtoks) ->
             match List.filter keep (audited_oxt_search params oxt st xtoks) with
             | [] -> None
             | rows -> Some (buckets, rows))
    | Per_attribute_tokens per_column ->
      let bucket_rows =
        Array.map
          (fun tokens ->
            Array.map (fun t -> List.filter keep (audited_search ~kind:"sse.bucket" et.index t)) tokens)
          per_column
      in
      let rec enumerate col chosen rows acc =
        if col = arity then begin
          match rows with
          | [] -> acc
          | rows -> (Array.of_list (List.rev chosen), rows) :: acc
        end
        else begin
          let acc = ref acc in
          Array.iteri
            (fun b rows_b ->
              let inter =
                if col = 0 then rows_b
                else begin
                  let set = Int_set.of_list rows in
                  List.filter (fun r -> Int_set.mem r set) rows_b
                end
              in
              acc := enumerate (col + 1) (b :: chosen) inter !acc)
            bucket_rows.(col);
          !acc
        end
      in
      enumerate 0 [] [] []
  in
  (* Public indicator coefficients per block vector: the constant term and
     (monomial position, coefficient) pairs. Shared across joint buckets. *)
  let block_coeffs =
    Trace.with_span "indicator_coeffs" @@ fun () ->
    Array.init num_blocks (fun bi ->
        let j = block_vector ~bucket_size ~arity bi in
        let terms = Polynomial.multivariate_indicator ~n ~bucket_size j in
        let constant = ref Z.zero in
        let monos = ref [] in
        List.iter
          (fun { Polynomial.exponents; coeff } ->
            if Array.for_all (fun e -> e = 0) exponents then constant := coeff
            else begin
              let full =
                Monomials.lift_exponents pp.monomials ~query_columns:tok.group_columns exponents
              in
              monos := (Monomials.position pp.monomials full, coeff) :: !monos
            end)
          terms;
        (!constant, !monos))
  in
  (* Unit shift S_r^{(j)} = Enc(1 iff offsets = j): the constant-term
     point a₀·g plus the coefficient-weighted monomial ciphertexts, as one
     signed combination. The constant-term points are shared by every row. *)
  let block_const_points =
    Bgn.lincomb1_batch pk (Array.map (fun (constant, _) -> [ (constant, pk.Bgn.g) ]) block_coeffs)
  in
  let shift_terms (row : enc_row) bi =
    let _, monos = block_coeffs.(bi) in
    (Z.one, block_const_points.(bi))
    :: List.map (fun (pos, coeff) -> (coeff, row.monomial_cts.(pos))) monos
  in
  (* The monomial columns a linear COUNT sums, and each one's slot. *)
  let count_columns =
    Array.to_list block_coeffs
    |> List.concat_map (fun (_, monos) -> List.map fst monos)
    |> List.sort_uniq compare |> Array.of_list
  in
  let column_slot = Hashtbl.create 16 in
  Array.iteri (fun i pos -> Hashtbl.replace column_slot pos i) count_columns;
  (* Precomputation-cache accessors for the table-side pairing arguments
     (the row's value/count ciphertexts are the fixed left argument of
     every multiplication they appear in). *)
  let value_pre (row : enc_row) vcol ch : Bgn.precomp1 =
    match row.pre_values.(vcol).(ch) with
    | Some pre ->
      Obs.incr m_precomp_hits;
      pre
    | None ->
      let pre = Bgn.precompute1 pk row.values.(vcol).(ch) in
      row.pre_values.(vcol).(ch) <- Some pre;
      pre
  in
  let count_pre (row : enc_row) : Bgn.precomp1 =
    match row.pre_count with
    | Some pre ->
      Obs.incr m_precomp_hits;
      pre
    | None ->
      let pre = Bgn.precompute1 pk row.count_ct in
      row.pre_count <- Some pre;
      pre
  in
  let touched = ref 0 in
  (* Aggregate one joint bucket: compute every row's shift per block once
     and feed it to both the sum and the count accumulators. Row chunks
     are processed on the worker pool's domains (the paper parallelizes
     query execution the same way). *)
  let aggregate_bucket (bucket_ids, rows) =
    touched := !touched + List.length rows;
    Obs.incr m_agg_buckets;
    Obs.add m_agg_rows (List.length rows);
    if !Audit.enabled then Audit.rows_paired (List.length rows);
    let num_channels = Crt.channels pp.channels in
        (* Level 1 first, as one batched combination with a single
           inversion: every (row, block) shift the pairings need, and in
           Count_level1 every block's count by linearity,
             Σ_r S_{r,b} = |rows|·a₀·g + Σ_m c_{b,m}·(Σ_r C_{r,m}),
           so each monomial column is summed once per chunk. Then each
           (block, channel) accumulator is one product of pairings
           ([Bgn.mul_many_pre]: one interleaved Miller loop and one shared
           final exponentiation). *)
        let accumulate_chunk (chunk : int list) =
          let chunk_rows = Array.of_list (List.map (fun r -> et.rows.(r)) chunk) in
          let nrows = Array.length chunk_rows in
          let shift_combos =
            if Option.is_none tok.value_column && et.count_mode = Count_level1 then [||]
            else
              Array.init (nrows * num_blocks) (fun i ->
                  shift_terms chunk_rows.(i / num_blocks) (i mod num_blocks))
          in
          let column_combos, count_combos =
            match et.count_mode with
            | Count_paired -> ([||], [||])
            | Count_level1 ->
              let g_slot = Array.length shift_combos in
              let column pos =
                Array.to_list (Array.map (fun row -> (Z.one, row.monomial_cts.(pos))) chunk_rows)
              in
              ( Array.append [| [ (Z.one, pk.Bgn.g) ] |] (Array.map column count_columns),
                Array.map
                  (fun (constant, monos) ->
                    (Z.mul_int constant nrows, g_slot)
                    :: List.map
                         (fun (pos, coeff) -> (coeff, g_slot + 1 + Hashtbl.find column_slot pos))
                         monos)
                  block_coeffs )
          in
          let shifts, counts =
            Bgn.lincomb1_batch2 pk (Array.append shift_combos column_combos) count_combos
          in
          let paired pair bi =
            Bgn.mul_many_pre pk
              (List.init nrows (fun i -> (pair chunk_rows.(i), shifts.((i * num_blocks) + bi))))
          in
          {
            sums =
              Option.map
                (fun vcol ->
                  Array.init num_blocks (fun bi ->
                      Array.init num_channels (fun ch ->
                          paired (fun row -> value_pre row vcol ch) bi)))
                tok.value_column;
            counts_l1 = (match et.count_mode with Count_level1 -> Some counts | Count_paired -> None);
            counts_l2 =
              (match et.count_mode with
               | Count_paired -> Some (Array.init num_blocks (paired count_pre))
               | Count_level1 -> None);
          }
        in
        (* The "chunk" span rides the submitting request's trace context
           (Pool.submit captures it), so pooled chunk work shows up
           under this bucket's pairing_loop span even when it ran on
           another domain. Inline row work (no pool, or a bucket too
           small to split) skips the extra span so the profiler
           attributes its allocation to pairing_loop itself. *)
        let accumulate_inline chunk =
          Obs.observe_ms h_chunk_ms (fun () -> accumulate_chunk chunk)
        in
        let accumulate chunk = Trace.with_span "chunk" (fun () -> accumulate_inline chunk) in
    let blocks =
      (* The caller runs one chunk itself, so [workers] helpers give
         [workers + 1]-way parallelism; tiny buckets stay inline. *)
      let workers = match pool with Some p -> Pool.workers p | None -> 0 in
      let chunk_count = workers + 1 in
      if workers = 0 || List.length rows < 2 * chunk_count then accumulate_inline rows
      else begin
        (* Round-robin split keeps chunks balanced. *)
        let chunks = Array.make chunk_count [] in
        List.iteri (fun i r -> chunks.(i mod chunk_count) <- r :: chunks.(i mod chunk_count)) rows;
        let p = Option.get pool in
        let futures =
          Array.to_list
            (Array.map (fun chunk -> Pool.submit p (fun () -> accumulate chunk))
               (Array.sub chunks 1 (chunk_count - 1)))
        in
        let first = accumulate chunks.(0) in
        List.fold_left (fun acc f -> merge_blocks pk acc (Pool.await f)) first futures
      end
    in
    { bucket_ids; group_size = List.length rows; blocks }
  in
  let buckets =
    Trace.with_span "pairing_loop" (fun () -> List.map aggregate_bucket joint_bucket_rows)
  in
  { buckets = sort_buckets buckets; touched_rows = !touched }

(* ⊕-combine per-node partial aggregates (scatter-gather merge). Every
   ciphertext is additively homomorphic, so summing the level-2 (and
   level-1 count) components bucket-by-bucket yields exactly the
   aggregate a single server would have produced over the union of the
   parts' rows — no decryption anywhere. Buckets are matched on their
   joint bucket vector; a bucket present in only some parts passes
   through unchanged (its rows all lived on those nodes). *)
let merge_agg_results (pk : Bgn.public_key) (parts : agg_result list) : agg_result =
  let tbl : (int list, bucket_aggregate) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun part ->
      List.iter
        (fun b ->
          let key = Array.to_list b.bucket_ids in
          match Hashtbl.find_opt tbl key with
          | None -> Hashtbl.add tbl key b
          | Some prev ->
            Hashtbl.replace tbl key
              {
                bucket_ids = prev.bucket_ids;
                group_size = prev.group_size + b.group_size;
                blocks = merge_blocks pk prev.blocks b.blocks;
              })
        part.buckets)
    parts;
  {
    buckets = sort_buckets (Hashtbl.fold (fun _ b acc -> b :: acc) tbl []);
    touched_rows = List.fold_left (fun acc p -> acc + p.touched_rows) 0 parts;
  }

(* --- decryption (Algorithm 6) -------------------------------------------- *)

type result_row = {
  group : Value.t list;  (* in queried-column order *)
  sum : int;
  count : int;
}

let dec1_table (c : client) ~(max : int) : Bgn.dec1_table =
  match List.assoc_opt max c.dec1_tables with
  | Some t -> t
  | None ->
    let t = Bgn.make_dec1_table c.kp ~max in
    c.dec1_tables <- (max, t) :: c.dec1_tables;
    t

let dec2_table (c : client) ~(max : int) : Bgn.dec2_table =
  match List.assoc_opt max c.dec2_tables with
  | Some t -> t
  | None ->
    let t = Bgn.make_dec2_table c.kp ~max in
    c.dec2_tables <- (max, t) :: c.dec2_tables;
    t

let decrypt (c : client) (tok : token) (agg : agg_result) ~(total_rows : int) : result_row list =
  let pp = c.pp in
  let config = pp.config in
  let bucket_size = config.Config.bucket_size in
  let arity = Array.length tok.group_columns in
  let num_blocks = int_of_float (float_of_int bucket_size ** float_of_int arity) in
  let count_max = total_rows in
  let results = ref [] in
  List.iter
    (fun ba ->
      for bi = 0 to num_blocks - 1 do
        let offsets = block_vector ~bucket_size ~arity bi in
        (* Map (bucket, offset) back to the group value per column; slots
           beyond a partial last bucket are uninhabited. *)
        let group =
          Array.to_list
            (Array.mapi
               (fun cidx col ->
                 Mapping.value_at c.mappings.(col) ~bucket:ba.bucket_ids.(cidx)
                   ~offset:offsets.(cidx))
               tok.group_columns)
        in
        if List.for_all Option.is_some group then begin
          let group = List.map Option.get group in
          let count =
            match (ba.blocks.counts_l1, ba.blocks.counts_l2) with
            | Some cts, _ ->
              Option.value
                (Bgn.dec1 c.kp (dec1_table c ~max:count_max) ~max:count_max cts.(bi))
                ~default:0
            | None, Some cts ->
              Option.value
                (Bgn.dec2 c.kp (dec2_table c ~max:count_max) ~max:count_max cts.(bi))
                ~default:0
            | None, None -> 0
          in
          let sum =
            match ba.blocks.sums with
            | None -> 0
            | Some sums ->
              let per_channel =
                Array.mapi
                  (fun ch ct ->
                    let d = pp.channels.Crt.moduli.(ch) in
                    let max = total_rows * (d - 1) in
                    Option.value (Bgn.dec2 c.kp (dec2_table c ~max) ~max ct) ~default:0)
                  sums.(bi)
              in
              Z.to_int_exn (Crt.decode pp.channels per_channel)
          in
          if count > 0 then results := { group; sum; count } :: !results
        end
      done)
    agg.buckets;
  List.sort
    (fun a b -> Stdlib.compare (List.map Value.to_string a.group) (List.map Value.to_string b.group))
    !results

(* End-to-end convenience: token → aggregate → decrypt. The optional
   arguments default to the table's own mode and row count;
   [pool] parallelizes the aggregation step. *)
let query ?index_mode ?oxt_rows ?pool (c : client) (et : enc_table) (q : Query.t) :
    result_row list =
  let index_mode = Option.value index_mode ~default:et.index_mode in
  let oxt_rows = Option.value oxt_rows ~default:(Array.length et.rows) in
  let tok = Trace.with_span "token" (fun () -> token ~index_mode ~oxt_rows c q) in
  let agg = Trace.with_span "aggregate" (fun () -> aggregate ?pool et tok) in
  Trace.with_span "decrypt" (fun () ->
      decrypt c tok agg ~total_rows:(Array.length et.rows))

let aggregate_value (q : Query.t) (r : result_row) : float =
  match q.Query.aggregate with
  | Query.Sum _ -> float_of_int r.sum
  | Query.Count -> float_of_int r.count
  | Query.Avg _ -> if r.count = 0 then 0. else float_of_int r.sum /. float_of_int r.count
