(** The full SAGMA construction (§3.4, Algorithms 1–6).

    Client-side state: a BGN keypair, an SSE key and one secret mapping
    per group column. Server-side state ({!enc_table}): per row, BGN
    level-1 encryptions of (a) each value column split into CRT residue
    channels, (b) a hidden count column fixed to 1 (0 for dummy rows) and
    (c) the monomials of the bucketized group offsets; plus an SSE index
    over bucket identifiers and filter keywords.

    Query processing: the server locates each queried bucket's rows
    through SSE, intersects them into joint buckets, derives every row's
    unit-shift indicator S_r^(j) by evaluating public Lagrange
    coefficients over the encrypted monomials (additive homomorphism
    only), pairs it with the value/count ciphertexts — the scheme's
    single ciphertext multiplication — and sums in the target group. The
    client decrypts each aggregate with a bounded discrete log and
    recombines CRT channels.

    The server never sees a group value, only bucket identifiers: the
    leakage is exactly L of §4.2 (see {!Leakage}). *)

module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module Bgn = Sagma_bgn.Bgn
module Crt = Sagma_bgn.Crt_channels
module Sse = Sagma_sse.Sse
module Curve = Sagma_pairing.Curve
module Oxt = Sagma_sse.Oxt

(** {1 Setup (Algorithm 1)} *)

type public_params = {
  config : Config.t;
  bgn_pk : Bgn.public_key;
  channels : Crt.t;
  monomials : Monomials.t;
  num_buckets : int array;  (** s_i = ⌈|D_i| / B⌉ per group column *)
}

type client = {
  pp : public_params;
  kp : Bgn.keypair;
  sse_key : Sse.key;
  oxt_key : Oxt.key;           (** for the {!Oxt_conjunctive} index mode *)
  mappings : Mapping.t array;  (** f_i, one per group column *)
  drbg : Drbg.t;
  mutable dec1_tables : (int * Bgn.dec1_table) option;
  mutable dec2_tables : (int * Bgn.dec2_table) option;
}
(** The trusted client. [dec1_tables] and [dec2_tables] each cache at
    most one discrete-log table, with the bound it was built for, across
    queries (see {!decrypt}). The tables are immutable, so a copy of
    the record ([{ c with drbg = ... }]) keeps an independent cache. *)

val setup :
  ?mapping_strategy:(string -> Mapping.strategy) ->
  Config.t ->
  domains:(string * Value.t list) list ->
  Drbg.t ->
  client
(** [setup config ~domains drbg] runs Algorithm 1. [domains] must cover
    every group column with its full value domain; [mapping_strategy]
    selects the §5 bucket-partitioning per column (default: PRF-keyed
    random permutation). *)

(** {1 Encryption (Algorithms 2–3)} *)

type enc_row = {
  values : Bgn.c1 array array;  (** k × channels: Enc(v_j mod d_c) *)
  count_ct : Bgn.c1;            (** Enc(1); Enc(0) for dummy rows *)
  monomial_cts : Bgn.c1 array;  (** Enc(Π offsetsᵉ) in storage order *)
  pre_values : Bgn.precomp1 option array array;
      (** lazily-filled pairing precomputation per value ciphertext;
          shaped like [values], starts all-[None], never serialized *)
  mutable pre_count : Bgn.precomp1 option;
      (** dito for [count_ct] (paired-count mode) *)
}

type count_mode =
  | Count_level1
      (** aggregate the indicators directly — curve additions only, no
          pairing; counts dummy rows, so only used without dummies *)
  | Count_paired
      (** pair the hidden count column — dummy-safe *)

type index_mode =
  | Per_attribute
      (** Algorithm 2: one keyword per (column, bucket); the server
          intersects posting lists and learns per-attribute bucket
          membership *)
  | Joint
      (** §3.4's Boolean-SSE alternative: one keyword per column subset
          (size ≤ t) and joint bucket vector; queries touch only their own
          combination and individual memberships never leak, at a storage
          cost of Σ_{{i≤t}} C(l,i) postings per row *)
  | Oxt_conjunctive
      (** the same goal with O(l) storage via the OXT Boolean-SSE
          protocol (Cash et al. [6]): joint membership resolved by
          cross-tag conjunctions. Leakage sits between the other modes —
          the s-term column's bucket pattern plus which of its rows match
          the conjunction *)

type enc_table = {
  pp : public_params;
  rows : enc_row array;
  index : Sse.index;             (** Π_bas: filters (+ buckets unless OXT) *)
  oxt_index : Oxt.index option;  (** bucket membership in OXT mode *)
  count_mode : count_mode;
  index_mode : index_mode;
}
(** What the server stores: semantically secure ciphertexts plus the SSE
    index — no keys. *)

val encrypt_table :
  ?dummy_groups:Value.t array list -> ?index_mode:index_mode -> client -> Table.t -> enc_table
(** Algorithm 2. [dummy_groups] appends one all-zero dummy row per entry
    (each an array of group-column values, §5), switching counting to
    {!Count_paired}. *)

val filter_keyword : column:string -> Value.t -> string

(** {1 Database updates} *)

val append : enc_table -> enc_row -> Sse.token list -> enc_table
(** [append et row tokens] appends [row] and posts it in the Π_bas
    index under each token at that keyword's next counter. Public data
    only: the one function that grows a table's Π_bas index, for a local
    {!append_row} and a served Append alike. In {!Oxt_conjunctive} mode
    it does not touch the OXT index. Non-destructive. *)

val append_row :
  ?range_values:(string * int) list ->
  client ->
  enc_table ->
  values:int array ->
  groups:Value.t array ->
  filters:(string * Value.t) list ->
  enc_table
(** Encrypt and append one row (the paper's EncRow-based update):
    EncRow, then {!append} with the row's keyword tokens, plus the OXT
    postings in {!Oxt_conjunctive} mode. [range_values] supplies the
    row's entries for range-filter columns. Non-destructive. *)

val append_payload :
  ?index_mode:index_mode ->
  ?range_values:(string * int) list ->
  client ->
  values:int array ->
  groups:Value.t array ->
  filters:(string * Value.t) list ->
  enc_row * Sse.token list
(** Client half of a remote append: the encrypted row plus the SSE tokens
    a server passes to {!append} (see [Sagma_protocol.Server]). *)

(** {1 Tokens (Algorithm 4)} *)

type bucket_source =
  | Per_attribute_tokens of Sse.token array array
      (** per queried column, one token per bucket *)
  | Joint_tokens of (int array * Sse.token) array
      (** one token per joint bucket-id vector *)
  | Oxt_tokens of (int array * Oxt.stag * Curve.point array array) array
      (** one OXT conjunction per joint bucket-id vector *)

type token = {
  value_column : int option;
  group_columns : int array;
  source : bucket_source;
  filter_tokens : Sse.token list;  (** equality clauses — intersected *)
  range_token_groups : Sse.token list list;
      (** one group per BETWEEN clause (its dyadic cover) — unioned
          within a group, intersected across groups *)
  t_num_buckets : int array;
}

val token : ?index_mode:index_mode -> ?oxt_rows:int -> client -> Query.t -> token
(** [index_mode] must match the target table's; [oxt_rows] (the table's
    public row count) is required in OXT mode to bound the x-token rows.
    @raise Invalid_argument when the query exceeds the threshold t or
    filters on a non-filter column. *)

(** {1 Server-side aggregation (Algorithm 5)} *)

type block_aggregates = {
  sums : Bgn.c2 array array option;  (** per block vector, per channel *)
  counts_l1 : Bgn.c1 array option;
  counts_l2 : Bgn.c2 array option;
}

type bucket_aggregate = {
  bucket_ids : int array;
  group_size : int;  (** rows feeding this joint bucket (leaked) *)
  blocks : block_aggregates;
}

type agg_result = {
  buckets : bucket_aggregate list;
  touched_rows : int;
}

val block_vector : bucket_size:int -> arity:int -> int -> int array

val oxt_params : unit -> Oxt.params
(** The shared public OXT group parameters (deterministic). *)

(** {2 Leakage-audit hooks}

    Every index access {!aggregate} performs goes through one of these,
    recording a probe — the token's deterministic tag plus the raw
    posting list it returned — into {!Sagma_obs.Audit} when auditing is
    enabled. Exported so tests can drive a forged probe through the
    production recording path; see {!Leakage.audit_check} for the
    matching prediction. *)

val audited_search : kind:string -> Sse.index -> Sse.token -> int list
(** [Sse.search] plus an audit probe under [kind] (the kinds
    [aggregate] uses: ["sse.bucket"], ["sse.filter"], ["sse.range"]). *)

val oxt_stag_tag : Oxt.stag -> string
(** Deterministic public identity of an OXT conjunction (the s-term
    stag's keyword-key prefix) — the tag both the auditor and
    {!Leakage.profile} record it under. *)

val aggregate :
  ?pool:Sagma_pool.Pool.t ->
  ?owned:(int -> bool) ->
  enc_table ->
  token ->
  agg_result
(** Algorithm 5. Deliberately takes only public data — no keys.
    Each joint bucket's level-1 combination (every row's shifts, with
    one shared inversion) runs on the caller. Two lists of independent
    jobs follow, run through {!Sagma_pool.Pool.run_jobs}: first one
    precomputation per row ciphertext whose cache slot is empty, then
    one product of pairings per (block, CRT channel) accumulator, plus
    one per block in [Count_paired] mode, each over all the bucket's
    rows. The caller drains each list itself; with [pool] (a long-lived
    pool spawned once per process) idle workers help, which is the
    paper's multi-core parallelization. A job computes exactly what it
    computes inline, so the result is byte-identical with or without a
    pool, whatever the bucket's row count.

    [owned] restricts pairing work to the rows this node is responsible
    for in a sharded deployment (replicated storage, partitioned
    compute): rows failing the predicate are dropped before any pairing
    and joint buckets left empty disappear, so per-shard partials
    {!merge_agg_results}-combine to exactly the unsharded answer.

    Buckets are returned in canonical (lexicographic bucket-vector)
    order, so equal aggregates serialize to equal bytes regardless of
    how the work was partitioned. *)

val merge_agg_results : Bgn.public_key -> agg_result list -> agg_result
(** ⊕-combine per-node partial aggregates (the coordinator's
    scatter-gather merge): per-bucket level-2 sums and level-2 counts
    via [Bgn.add2], level-1 counts via [Bgn.add1], group sizes and
    touched-row counts added — no decryption anywhere. Buckets are
    matched on their joint bucket vector; one present in only some
    parts passes through unchanged. Needs only the public key. *)

(** {1 Decryption (Algorithm 6)} *)

type result_row = {
  group : Value.t list;  (** in queried-column order *)
  sum : int;
  count : int;
}

val decrypt : client -> token -> agg_result -> total_rows:int -> result_row list
(** Bounded-dlog decryption of every aggregate component, CRT
    recombination, inverse bucket mapping, and suppression of empty
    groups. Each level's table is asked for once per call, for the
    largest bound the call solves: [total_rows] for counts and
    [total_rows·(d_max − 1)] for sums. A cached table whose bound covers
    that is reused; otherwise the level's table is rebuilt for twice
    the bound. As [total_rows] grows, each level rebuilds about once
    per doubling. *)

val query :
  ?index_mode:index_mode ->
  ?oxt_rows:int ->
  ?pool:Sagma_pool.Pool.t ->
  client ->
  enc_table ->
  Query.t ->
  result_row list
(** Convenience: token → aggregate → decrypt, wrapped in trace spans
    ("token"/"aggregate"/"decrypt", see {!Sagma_obs.Trace}).
    [index_mode] defaults to the table's own mode and [oxt_rows] to its
    row count — override only to exercise a mismatch deliberately.
    [pool] parallelizes the aggregation step as in {!aggregate}. *)

val aggregate_value : Query.t -> result_row -> float
(** SUM/COUNT/AVG as the query requested. *)
