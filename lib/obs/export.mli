(** Prometheus text-format exposition of {!Metrics} snapshots.

    One call renders the whole registry: counters as
    [sagma_<name>_total], histograms as the conventional
    [_bucket{le="..."}]/[_sum]/[_count] family over the fixed
    {!Metrics.bucket_bounds} grid (cumulative counts summed from the
    snapshot's raw ones), and {!Metrics.quantile} p50/p95/p99 estimates
    as companion [_p50]/[_p95]/[_p99] gauges.

    Labels are applied at print time: a coordinator's per-shard
    snapshots render as [{shard="i"}] series next to the fleet
    aggregates. A registry name may also carry its own label block,
    built with {!labeled} (e.g. ["router.shard_up{endpoint=\"h:1\"}"]),
    which renders as a labeled series. *)

val metric_name : string -> string
(** Registry name → namespaced Prometheus identifier
    (["proto.request_ms"] → ["sagma_proto_request_ms"]). A label block
    is dropped: [metric_name "a.b{shard=\"1\"}" = "sagma_a_b"]. *)

val escape_label_value : string -> string
(** Prometheus label-value escaping: backslash, double-quote and
    newline. Everything else — including hostile endpoint strings —
    passes through verbatim. *)

val labeled : string -> (string * string) list -> string
(** [labeled name [("shard", "1")]] is ["name{shard=\"1\"}"]: the
    snapshot-entry spelling of a labeled series. Label names are
    sanitized, label values escaped with {!escape_label_value}; an empty
    label list returns [name] unchanged. *)

val prometheus :
  ?uptime_s:float ->
  ?raw:(string * float) list ->
  ?shards:(int * Metrics.snapshot) list ->
  Metrics.snapshot ->
  string
(** The full exposition page, one sample per line, newline-terminated.
    [uptime_s] adds a [sagma_uptime_seconds] gauge. [raw] samples are
    emitted under their given names unprefixed — the process-level
    [ocaml_gc_*] family [sagma stats --prometheus] renders from a
    Stats reply's gc section; names ending in [_total] are typed
    counter, everything else gauge. Each [shards] entry [(i, snap)]
    renders [snap]'s series with a [shard="i"] label (merged with [le]
    in the [_bucket] block), after the unlabeled snapshot's series of
    the same kind. HELP/TYPE headers are emitted once per family, so
    labeled and unlabeled series of one family share them. *)
