(** The untrusted server's request handler.

    Deliberately key-free: the state holds only uploaded ciphertexts and
    SSE indexes; aggregation is [Sagma.Scheme.aggregate], appends extend
    postings from tokens. Transport-agnostic. *)

module Scheme = Sagma.Scheme

type t

val create :
  ?agg_pool:Sagma_pool.Pool.t ->
  ?shard:int * int ->
  ?trace_sample:int ->
  ?slow_query_ms:float ->
  ?watchdog:Sagma_obs.Watchdog.t ->
  unit ->
  t
(** [create ()] builds an empty, thread-safe server state: request
    handlers may run concurrently (registry accesses take an internal
    lock; aggregation runs lock-free on immutable table snapshots).
    [agg_pool] parallelizes row work inside each aggregation — it MUST
    be a different pool from the one serving connections, or a
    connection task could await futures only its own pool can run.

    [shard:(i, n)] makes this a storage node of an [n]-shard
    scatter-gather fleet (see {!Router}): storage stays replicated
    (uploads and appends land on every node — the SSE index is
    PRF-opaque and cannot be split server-side), but aggregation only
    pairs the rows of slice [row mod n = i], so the fleet divides the
    pairing work and a coordinator ⊕-merges the partials. The node
    reports role ["shard"] in its Stats topology.
    @raise Invalid_argument unless [0 <= i < n].

    [trace_sample] (default 0 = off) traces every Nth request:
    a sampled request runs under [Sagma_obs.Trace.with_request_full],
    lands on the completed-trace ring (served by the [Traces] request)
    and carries an EXPLAIN trailer in its reply. A peer's sampling flag
    forces a trace regardless. [slow_query_ms] (default
    0. = off) makes every request over the threshold emit a
    [slow_query] log event with its span tree and cost block — which
    requires tracing every request, so a nonzero threshold implies
    sampling them all. Both need metrics collection enabled.

    [watchdog] serves that watchdog's currently-firing alerts in
    [Health] replies (the caller runs the poll loop); without one the
    alert list is always empty. *)

val set_draining : t -> bool -> unit
(** Flip the health status to ["draining"] (graceful shutdown has
    begun) — and back, should the drain be aborted. *)

val health_status :
  draining:bool ->
  alerts:Sagma_obs.Watchdog.alert list ->
  shards:Protocol.shard_health list ->
  string
(** The status word: ["draining"] wins, then any firing alert or
    unreachable shard means ["degraded"], else ["ok"]. Shared with
    {!Router}. *)

val validate_table_name : string -> string option
(** [Some message] when a table name must be rejected with
    [Bad_request] — empty, or longer than 1024 bytes (an unlistable or
    memory-amplifying registry key). Shared with {!Router}. *)

val gc_stats_now : unit -> Protocol.gc_stats
(** The process's current [Gc.quick_stat] as the Stats gc section. *)

val pipeline :
  trace_sample:int ->
  slow_query_ms:float ->
  (Protocol.request -> Protocol.response) ->
  string ->
  string
(** The encoded-request pipeline {!handle_encoded} is built on, generic
    over the actual handler so a query router ({!Router}) shares the
    metrics, logging, audit bracketing, sampling, framing and
    EXPLAIN-trailer machinery of the storage server. *)

val handle : t -> Protocol.request -> Protocol.response

val handle_encoded : t -> string -> string
(** Decode, handle, encode; never lets an exception escape (malformed
    requests yield [Failed]; a frame at any other protocol version
    yields [Failed Version_unsupported]). Every reply is framed at
    {!Protocol.version}. Brackets the handler with a fresh request id shared by the
    [Sagma_obs.Log] "request" event (which carries
    [duration_ms]/[bytes_out]) and the [Sagma_obs.Audit] trace (when
    those subsystems are enabled). Sampled requests (see {!create}) run
    under a [Sagma_obs.Trace] request context and attach an EXPLAIN
    trailer to the reply. *)
