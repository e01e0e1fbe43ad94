(** The query router (coordinator) of a scatter-gather deployment.

    Speaks the same wire protocol as a storage server but owns no rows:
    [Aggregate] fans out to every shard concurrently (over
    [Sagma_pool]), each shard — a [Server] created with [?shard] —
    pairs only the rows it owns, and the per-bucket partial sums come
    back ⊕-mergeable ([Sagma.Scheme.merge_agg_results], public key
    only). The router NEVER decrypts; the client pays one decrypt, same
    as against a single server, and receives bytes identical to the
    single-server answer.

    [Upload]/[Append] fan to every shard (storage is replicated — the
    SSE index is PRF-opaque and cannot be split server-side); appends
    are stamped with the coordinator's global row id so replicas
    stay aligned and the compute owner [row_id mod count] is stable.

    Fault handling: any unreachable, timed-out or failing shard turns
    the reply into [Failed] naming that shard, within the per-call
    deadline. There is no version negotiation: coordinator and shards
    ship in one build, and a shard built at another protocol version
    answers [Failed Version_unsupported], reported like any other shard
    failure.

    Tracing: when the router's request is sampled, shard calls carry
    the router's trace id as their trace context, and shard EXPLAIN
    timings are grafted back under the per-shard spans — the
    distributed request renders as one tree:
    request → fanout → shard:N → remote:aggregate.

    Fleet health: with [?probe_interval_ms] set, a background
    prober maintains per-shard reachability state (up/down since,
    failure streak, EWMA RTT) served in [Health_report], exported as
    [router.shard_up]{shard="..."} gauges, and used to fast-fail
    fan-out calls to known-down shards until a probe sees them recover.
    The Stats reply federates: the coordinator's own snapshot is merged
    with every reachable shard's into fleet aggregates, with each
    shard's series riding along labeled {shard="i"}. *)

type t

val create :
  ?deadline_ms:int ->
  ?trace_sample:int ->
  ?slow_query_ms:float ->
  ?probe_interval_ms:int ->
  ?watchdog:Sagma_obs.Watchdog.t ->
  string list ->
  t
(** [create endpoints] builds a router over the given shard endpoints
    ("host:port"; a bare port means loopback). [deadline_ms] (default
    5000) bounds each shard call's reads and writes, so a dead shard
    yields a prompt [Failed] instead of a hang; 0 disables.
    The internal fan-out pool has [min shards 8] workers and is always
    distinct from any connection-serving pool, as required by
    [Sagma_pool]. [trace_sample]/[slow_query_ms]
    as in [Server.create].

    [probe_interval_ms] (default 0 = off) enables background health
    probing at that period — call {!start_probes} to actually start the
    loop — and with it the fast-fail of calls to known-down shards.
    [watchdog] serves that watchdog's firing alerts in [Health]
    replies (the caller runs the poll loop, feeding it
    {!down_count}).
    @raise Invalid_argument on an empty or unparsable endpoint list. *)

val start_probes : t -> unit
(** Spawn the background probe domain (a no-op when
    [probe_interval_ms] is 0 or the loop already runs). Each round
    sends [Health] to every shard on a small dedicated pool and
    updates the per-shard state. Stopped by {!shutdown}. *)

val shutdown : t -> unit
(** Stop the probe loop (if running) and shut the pools down
    (idempotent via [Sagma_pool]). *)

val set_draining : t -> bool -> unit
(** Flip the health status to ["draining"] — and back. *)

val shard_health : t -> Protocol.shard_health list
(** The per-shard block a [Health_report] carries, one entry per
    shard in fan-out order. *)

val down_count : t -> int
(** How many shards are currently marked unreachable — the watchdog's
    [Shards_down] signal. *)

val topology : t -> Protocol.topology
(** The ["coordinator"] topology this router reports in Stats. *)

val handle : t -> Protocol.request -> Protocol.response

val handle_encoded : t -> string -> string
(** [Server.pipeline] over {!handle}: same metrics, logging, audit
    bracketing, sampling and framing as a storage
    server's [Server.handle_encoded]. *)
