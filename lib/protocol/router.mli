(** The query router of a scatter-gather deployment: the fan-out a
    coordinator node ([Server.create ~fleet]) serves its table requests
    through. The router is not a node: the coordinator's [Server]
    answers [Stats]/[Traces]/[Health] from {!federated_snapshot},
    {!topology} and {!shard_health}, and runs the request pipeline.

    The router owns no rows: [Aggregate] fans out to every shard at
    once, on threads of the calling domain, each shard — a
    [Server] created with [?shard] — pairs only the rows it owns, and
    the per-bucket partial sums come back ⊕-mergeable
    ([Sagma.Scheme.merge_agg_results], public key only). The router
    NEVER decrypts; the client pays one decrypt, same as against a
    single server, and receives bytes identical to the single-server
    answer.

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
    the router's trace id as their trace context. The per-shard spans
    are built after the join from each call's measured start and
    duration, with the shard's EXPLAIN timings as their children — the
    distributed request renders as one tree:
    request → fanout → shard:N → remote:aggregate.

    Fleet health: with [?probe_interval_ms] set, a background
    prober maintains per-shard reachability state (up/down since,
    failure streak, EWMA RTT) served in [Health_report], exported as
    [router.shard_up]{shard="..."} gauges, and used to fast-fail
    fan-out calls to known-down shards until a probe sees them recover. *)

type t

val create : ?deadline_ms:int -> ?probe_interval_ms:int -> string list -> t
(** [create endpoints] builds a router over the given shard endpoints
    ("host:port"; a bare port means loopback). [deadline_ms] (default
    5000) bounds each shard call's reads and writes, so a dead shard
    yields a prompt [Failed] instead of a hang; 0 disables.
    The router starts no domain: a fan-out makes each shard call on
    its own thread of the domain that called {!handle}, the last on
    the calling thread itself. Calls are admitted
    first come, first served, at most as many at once as there are
    shards, so one fan-out never waits for itself and concurrent
    requests take turns at the shards.

    [probe_interval_ms] (default 0 = off) enables background health
    probing at that period — call {!start_probes} to actually start the
    loop — and with it the fast-fail of calls to known-down shards.
    @raise Invalid_argument on an empty or unparsable endpoint list. *)

val start_probes : t -> unit
(** Start the background probe thread on the calling domain (a no-op
    when [probe_interval_ms] is 0 or the loop already runs). Each round
    sends [Health] to every shard the way a fan-out sends its calls,
    and updates the per-shard state. Stopped by {!shutdown}. *)

val shutdown : t -> unit
(** Stop the probe loop, if it runs, and join its thread. Idempotent. *)

val shard_health : t -> Protocol.shard_health list
(** The per-shard block a [Health_report] carries, one entry per
    shard in fan-out order. *)

val down_count : t -> int
(** How many shards are currently marked unreachable — the watchdog's
    [Shards_down] signal. *)

val topology : t -> Protocol.topology
(** The ["coordinator"] topology a coordinator reports in Stats. *)

val federated_snapshot :
  t ->
  Sagma_obs.Metrics.snapshot * (int * Sagma_obs.Metrics.snapshot) list * Sagma_obs.Audit.summary
(** The fleet's metrics from one [Stats] fan-out: this process's
    snapshot ⊕-merged with every reachable shard's into unlabeled fleet
    aggregates, each reachable shard's own snapshot under its index in
    the fan-out order, and this process's audit summary plus every
    reachable shard's. Unreachable or failing shards are skipped, so a
    scrape degrades instead of failing. *)

val handle : t -> Protocol.request -> Protocol.response
(** Route one table request ([Upload], [Drop], [Append], [Aggregate],
    [List_tables]) through the fleet. Node requests ([Stats], [Traces],
    [Health]) are the coordinator node's to answer and get
    [Failed Bad_request]. *)
