(** Metrics registry: named monotonic counters and value histograms.

    Every hot path in the repository reports through this module, so the
    cost model of the paper (§3.4/§5 — pairings per row, Lagrange scalar
    multiplications, bounded discrete logs) can be measured directly
    rather than inferred from wall-clock time.

    Collection is off by default: {!incr}/{!add}/{!observe} reduce to a
    single flag test and return, so instrumented code pays nothing
    measurable when disabled. Counters are [Atomic.t] cells, safe to
    bump from the domains [Sagma.Scheme.aggregate] spawns; histograms
    take a mutex per observation and are only used on coarse paths
    (request latency, per-chunk timings). *)

type counter
type histogram
type gauge

val enabled : bool ref
(** The global switch, [false] by default. Prefer {!set_enabled}; the
    ref is exposed so hot paths can guard compound work with a single
    load ([if !Metrics.enabled then ...]). *)

val set_enabled : bool -> unit

(** {1 Registration}

    Registration is idempotent: calling {!counter} (or {!histogram})
    twice with one name returns the same cell, so tests can look up the
    handles the instrumented libraries registered at init time. Handles
    should be created once at module initialization, never per
    operation. *)

val counter : string -> counter
val histogram : string -> histogram

val gauge : string -> gauge
(** Gauges are level measurements (in-flight connections, pool queue
    depth): unlike counters they move both ways, and a zero reading is
    meaningful, so snapshots keep any gauge that has ever been
    recorded to. *)

(** {1 Hot-path recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : histogram -> float -> unit

val gauge_incr : gauge -> unit
val gauge_decr : gauge -> unit
val gauge_add : gauge -> int -> unit
val gauge_set : gauge -> int -> unit

val gauge_value : gauge -> int
(** Current level (readable even while disabled). *)

val observe_ms : histogram -> (unit -> 'a) -> 'a
(** [observe_ms h f] runs [f ()] and records its wall-clock duration in
    milliseconds. When collection is disabled this is exactly [f ()].
    Safe on any domain (unlike {!Trace.with_span}). *)

val value : counter -> int
(** Current count (readable even while disabled). *)

(** {1 Per-request cost scopes}

    The registry counters are process-global, so under a domain pool the
    deltas of concurrent requests blend together. A scope is a small
    atomic vector with one slot per entry of the cost block: [pairings],
    [miller_steps], [bgn_mul], [dlog_solves], [dlog_giant_steps],
    [sse_postings] (SSE and OXT postings), [agg_rows], [agg_buckets],
    [prod_calls], [precomp_hits], [invm] and [invm_batch], each fed by
    the registry counters its entry lists. While a scope is installed on
    a domain, every {!incr}/{!add} on a listed counter also lands in its
    entry's slot, so the request being served gets its own exact deltas.
    Scopes are installed domain-locally and shared across the pool
    domains that run one request's aggregation chunks (see
    [Trace.capture]/[Trace.with_ctx]). *)

type scope

val scope_create : unit -> scope
(** A fresh all-zero scope, not yet installed anywhere. *)

val scope_swap : scope option -> scope option
(** Install a scope (or none) on the calling domain, returning what was
    installed before — the save/restore primitive. *)

val scope_current : unit -> scope option
(** The scope installed on the calling domain, if any. *)

val scope_counts : scope -> (string * int) list
(** Every cost-block entry with its delta, in the block's order. *)

(** {1 Snapshots} *)

val bucket_bounds : float array
(** The fixed exponential bucket grid every histogram shares: upper
    bounds [0.001 · 2^i]. Observations above the last bound land in an
    implicit +∞ overflow bucket. *)

type hist_stats = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_counts : int array;
      (** per-bucket (not cumulative) counts: one slot per
          {!bucket_bounds} entry, then the +∞ overflow slot *)
}

val quantile : hist_stats -> float -> float
(** [quantile h q] estimates the q-quantile: linear interpolation
    inside the bucket holding the q·count-th observation, clamped to
    [min, max]. Readers compute the p50/p95/p99 they print with it. *)

type snapshot = {
  counters : (string * int) list;        (** nonzero counters, sorted *)
  gauges : (string * int) list;          (** ever-touched gauges, sorted *)
  histograms : (string * hist_stats) list;  (** nonempty histograms, sorted *)
}

val snapshot : unit -> snapshot

val merge_hist_stats : hist_stats -> hist_stats -> hist_stats
(** Combine two histograms of the same metric from different nodes:
    counts, sums and bucket counts add pointwise (all histograms share
    {!bucket_bounds}) and min/max widen. *)

val merge_snapshots : snapshot -> snapshot -> snapshot
(** Fleet federation: pointwise sum of counters and gauges by name,
    {!merge_hist_stats} on histograms. Used by a coordinator merging its
    shards' [Stats] replies into one fleet-wide view. *)

val reset : unit -> unit
(** Zero every registered counter and histogram (registration is kept). *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val snapshot_to_json : snapshot -> Json.t
(** A JSON object [{"counters": {...}, "gauges": {...},
    "histograms": {...}}]; histogram entries carry count/sum/min/max/mean
    and p50/p95/p99. *)
