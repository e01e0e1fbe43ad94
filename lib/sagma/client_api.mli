(** Unified client facade over the algorithm-level {!Scheme} API.

    {!Scheme} exposes the paper's algorithms one by one (setup, EncTable,
    token, aggregate, decrypt) and makes the caller thread the encrypted
    table, index mode and row counts through every call. This facade
    bundles a client and its current encrypted table into one handle for
    the common single-table workflow:

    {[
      let t = Client_api.create ~config ~domains () in
      Client_api.encrypt t ~table;
      let rows = Client_api.query t q in
      Client_api.append t ~values:[| 55 |] ~groups:[| Value.Str "x" |]
    ]}

    Everything here delegates to {!Scheme}; multi-table or split
    client/server deployments should keep using {!Scheme} and
    [Sagma_protocol] directly. *)

type t
(** A trusted client plus (once {!encrypt} ran) its current
    encrypted table. The table is replaced in place by {!encrypt} and
    {!append}; the underlying [Scheme.enc_table] values are immutable, so
    handles obtained via {!encrypted} stay valid. *)

val create :
  ?mapping_strategy:(string -> Mapping.strategy) ->
  ?seed:string ->
  config:Config.t ->
  domains:(string * Sagma_db.Value.t list) list ->
  unit ->
  t
(** Algorithm 1 (Setup). [domains] must cover every group column with its
    full value domain; [seed] (default ["sagma-client"]) seeds the
    deterministic DRBG, so equal seeds give identical keys. *)

val mappings : t -> Mapping.t array
(** The secret bucket mappings, one per group column (needed e.g. by
    [Bucketing.dummy_rows]). *)

val encrypt :
  ?dummy_groups:Sagma_db.Value.t array list ->
  ?index_mode:Scheme.index_mode ->
  t ->
  table:Sagma_db.Table.t ->
  unit
(** Algorithm 2 (EncTable): encrypt [table] and make it the handle's
    current table, replacing any previous one. *)

val encrypted : t -> Scheme.enc_table
(** The current encrypted table — what a server would store.
    @raise Invalid_argument when nothing has been encrypted yet. *)

val row_count : t -> int
(** Rows (real + dummy) in the current table; 0 before {!encrypt}. *)

val query :
  ?index_mode:Scheme.index_mode ->
  ?oxt_rows:int ->
  ?pool:Sagma_pool.Pool.t ->
  t ->
  Sagma_db.Query.t ->
  Scheme.result_row list
(** Token → aggregate → decrypt against the current table (defaults
    follow [Scheme.query]: the table's own index mode and row count).
    [pool] parallelizes the server-side aggregation as in
    [Scheme.aggregate].
    @raise Invalid_argument when nothing has been encrypted yet. *)

val append :
  ?range_values:(string * int) list ->
  ?filters:(string * Sagma_db.Value.t) list ->
  t ->
  values:int array ->
  groups:Sagma_db.Value.t array ->
  unit
(** Encrypt and append one row to the current table (the paper's
    EncRow-based update), extending the SSE postings.
    @raise Invalid_argument when nothing has been encrypted yet. *)
