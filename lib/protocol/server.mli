(** The untrusted server's request handler: the one serving node.

    Deliberately key-free: the state holds only uploaded ciphertexts and
    SSE indexes; aggregation is [Sagma.Scheme.aggregate], appends extend
    postings from tokens. Transport-agnostic.

    A node has one of three roles: a single server, a shard of a
    scatter-gather fleet ([?shard]) or the fleet's coordinator
    ([?fleet]), which stores nothing and routes table requests through
    a {!Router}. Every role answers [Stats], [Traces] and [Health]
    itself and runs the same request pipeline ({!handle_encoded}). *)

module Scheme = Sagma.Scheme

type t

val create :
  ?agg_pool:Sagma_pool.Pool.t ->
  ?shard:int * int ->
  ?fleet:Router.t ->
  ?trace_sample:int ->
  ?slow_query_ms:float ->
  ?watchdog:Sagma_obs.Watchdog.t ->
  unit ->
  t
(** [create ()] builds an empty, thread-safe server state: request
    handlers may run concurrently (registry accesses take an internal
    lock; aggregation runs lock-free on immutable table snapshots).
    [agg_pool] lends its idle workers to each aggregation's jobs
    ({!Sagma.Scheme.aggregate}, {!Sagma_pool.Pool.run_jobs}), and may be
    the pool that runs this node's requests: a job list gets a helper
    only for a worker that no request occupies and no queued task is
    owed to, and never waits on a queued task. Only a single server
    takes one.

    [shard:(i, n)] makes this a storage node of an [n]-shard
    scatter-gather fleet (see {!Router}): storage stays replicated
    (uploads and appends land on every node — the SSE index is
    PRF-opaque and cannot be split server-side), but aggregation only
    pairs the rows of slice [row mod n = i], so the fleet divides the
    pairing work and a coordinator ⊕-merges the partials. The node
    reports role ["shard"] in its Stats topology. A fleet query already
    runs one part per shard, so a shard aggregates inline.
    @raise Invalid_argument unless [0 <= i < n], or with [agg_pool].

    [fleet] makes this the coordinator of that fleet: [Upload], [Drop],
    [Append], [Aggregate] and [List_tables] go to {!Router.handle}
    (after the table-name check); [Stats] serves
    {!Router.federated_snapshot} and the ["coordinator"] topology, and
    [Health] carries {!Router.shard_health}. The caller owns the
    router: it starts its probes and shuts it down.
    @raise Invalid_argument when combined with [shard] or [agg_pool].

    [trace_sample] (default 0 = off) traces every Nth request:
    a sampled request runs under [Sagma_obs.Trace.with_request],
    lands on the completed-trace ring (served by the [Traces] request)
    and carries its trace record as the EXPLAIN trailer of its reply.
    A peer's sampling flag forces a trace regardless. [slow_query_ms]
    (default 0. = off) makes every request over the threshold emit a
    [slow_query] log event with its span tree and every named count of
    its trace ([cost_<entry>], [gc_<field>], [alloc_<span>]) — which
    requires tracing every request, so a nonzero threshold implies
    sampling them all. Both need metrics collection enabled.

    [watchdog] serves that watchdog's currently-firing alerts in
    [Health] replies (the caller runs the poll loop); without one the
    alert list is always empty. [Health] reads ["draining"] while
    draining (see {!set_draining}), else ["degraded"] while an alert
    fires or a fleet shard is unreachable, else ["ok"]. *)

val set_draining : t -> bool -> unit
(** Flip the health status to ["draining"] (graceful shutdown has
    begun) — and back, should the drain be aborted. *)

val handle : t -> Protocol.request -> Protocol.response
(** Answer one request. In every role an [Upload] whose table name is
    empty or longer than 1024 bytes gets [Failed Bad_request]. *)

val handle_encoded : t -> string -> string
(** Decode, handle, encode; never lets an exception escape (malformed
    requests yield [Failed]; a frame at any other protocol version
    yields [Failed Version_unsupported]). Every reply is framed at
    {!Protocol.version}. Brackets the handler with a fresh request id shared by the
    [Sagma_obs.Log] "request" event (which carries
    [duration_ms]/[bytes_out]) and the [Sagma_obs.Audit] trace (when
    those subsystems are enabled). With auditing on, an answered
    [Aggregate] on a single server or shard is checked with
    [Sagma.Leakage.audit_check] against the table snapshot and token
    it read; a failed check logs an [audit_fail] warning with the
    errors. Sampled requests (see {!create}) run
    under a [Sagma_obs.Trace] request context and attach an EXPLAIN
    trailer to the reply. *)
