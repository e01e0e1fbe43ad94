(** Span tracing: nested wall-clock timers producing a tree per query,
    safe under a domain pool.

    [with_span "phase" f] times [f] and records the span under the
    enclosing one, so a query leaves a tree like

    {v
    aggregate                    41.2 ms
      filter                      0.4 ms
      bucket_intersection         1.9 ms
      pairing_loop               38.6 ms
    v}

    Every domain keeps its own stack of open frames in domain-local
    storage; a pool worker running part of another domain's request
    inherits that request's context through {!capture}/{!with_ctx} (the
    pool does this on every submit), so its spans attach under the
    submitting frame and each request builds one intact tree regardless
    of how many domains executed pieces of it.

    Tracing shares {!Metrics.enabled}: disabled (the default),
    [with_span] is a flag test plus a tail call.

    Spans closed outside any {!with_request} become ambient roots
    ({!roots}); spans closed inside one build that request's tree
    ({!requests}). Both completed stores are mutex-guarded bounded rings
    capped at 1024 entries, oldest dropped first.

    Resource accounting: every completed request carries a GC
    differential ({!gc_delta}), and while {!Sagma_obs.Prof} is active
    each request also accumulates a span-name → allocated-words table
    ([r_alloc]). *)

type span = {
  name : string;
  t0 : float;              (** wall-clock start, seconds since the epoch *)
  ms : float;              (** wall-clock duration *)
  children : span list;    (** in execution order *)
}

(** Per-request deltas of the §6 cost-model counters, from the
    {!Metrics.scope} installed for the request. [bytes_in]/[bytes_out]
    are transport-level and filled by the server (zero elsewhere). *)
type cost = {
  pairings : int;          (** [pairing.pairings] *)
  miller_steps : int;      (** [pairing.miller_steps] *)
  bgn_mul : int;           (** [bgn.mul] — the analytic n·B^arity·c count *)
  dlog_solves : int;       (** [bgn.dlog.solves] *)
  dlog_giant_steps : int;  (** [bgn.dlog.giant_steps] *)
  sse_postings : int;      (** [sse.postings_scanned] + [oxt.postings_scanned] *)
  agg_rows : int;          (** [scheme.agg.rows] *)
  agg_buckets : int;       (** [scheme.agg.joint_buckets] *)
  bytes_in : int;
  bytes_out : int;
}

val cost_fields : cost -> (string * int) list
(** Every cost field with its stable name, declaration order — for log
    events, CLI printing and JSON emitters. *)

(** Per-request [Gc.quick_stat] differential, all in words. The
    allocation counters are domain-local on OCaml 5, so a request whose
    row work ran on pool domains reports the coordinating domain's
    share. *)
type gc_delta = {
  gc_minor_words : int;
  gc_promoted_words : int;
  gc_major_words : int;
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_heap_words : int;    (** major heap size when the request finished *)
  gc_heap_growth : int;   (** [heap_words] delta over the request *)
}

val zero_gc : gc_delta

val gc_fields : gc_delta -> (string * int) list
(** Every GC field with its stable name, declaration order — mirrors
    {!cost_fields}. *)

(** A completed request trace: the root span (named ["request"]), its
    start time, the trace id (client-supplied or generated), the cost
    block, the GC differential, and the profiler's allocation table
    (empty unless {!Sagma_obs.Prof} was active; largest site first).
    [r_cost] is mutable so the server can fill the byte counts after
    encoding the response; the {!requests} ring holds the same record,
    so the update is visible in later exports. *)
type rtrace = {
  r_id : string;
  r_start : float;
  r_root : span;
  mutable r_cost : cost;
  mutable r_gc : gc_delta;
  mutable r_alloc : (string * int) list;
}

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span on this domain (or of
    the inherited parent frame, or as a new ambient root). Exceptions
    propagate; the span is still recorded. *)

val with_request : ?trace_id:string -> (unit -> 'a) -> 'a * span
(** Run [f] as one traced request: a root span named ["request"] is
    opened, spans [f] opens (on this domain or on pool workers that
    inherited the context) become its descendants, and a fresh
    {!Metrics.scope} collects the request's counter deltas. Returns the
    completed root. When metrics are disabled this is just [f ()] paired
    with an empty span. *)

val with_request_full : ?trace_id:string -> (unit -> 'a) -> 'a * rtrace
(** Like {!with_request} but returns the full record (id, start, cost,
    GC differential, allocation table) that was pushed onto the
    {!requests} ring. *)

val set_cost : rtrace -> cost -> unit
(** Replace the cost block (the server uses this to fill
    [bytes_in]/[bytes_out] after encoding the response). *)

val current_request_id : unit -> string option
(** The id of the request currently being traced on this domain — set
    by {!with_request_full}, inherited through {!capture}/{!with_ctx},
    [None] outside a traced request. A query router propagates this
    across the coordinator → shard hop (as the trace context of its
    shard calls), so both nodes record the same trace id. *)

val attach_span : span -> unit
(** Graft an already-completed span — e.g. one rebuilt from a shard's
    EXPLAIN timings — as a child of the innermost open span, so a
    distributed request renders as one tree. No-op outside any open
    span or with metrics disabled. *)

(** {1 Profiler integration}

    Used by {!Sagma_obs.Prof}; not meant for direct application use. *)

val set_prof_hook : (string -> int -> unit) option -> unit
(** Install the span-close allocation sampler: with a hook set, every
    span close measures the domain's allocated-words delta over the
    span, charges the self part to the closing span's name (both into
    the current request's table and through the hook), and rolls the
    total up into the enclosing frame. [None] (the default) keeps span
    close free of any [Gc] call. *)

(** {1 Context inheritance} *)

type ctx
(** A capture of the calling domain's tracing position: the innermost
    open frame, the installed {!Metrics.scope}, and the request's
    allocation table. *)

val capture : unit -> ctx
(** Capture on the submitting domain; pass to {!with_ctx} on a worker. *)

val with_ctx : ctx -> (unit -> 'a) -> 'a
(** Run [f] with the captured context installed: spans attach under the
    captured frame, counter deltas land in the captured scope. The
    worker's previous state is restored afterwards. The captured frame
    must still be open while [f] runs — guaranteed on the pool path
    because the submitter awaits the task's future inside that frame. *)

(** {1 Completed traces} *)

val roots : unit -> span list
(** Completed ambient root spans since the last {!reset}, oldest first
    (bounded: the newest 1024). *)

val requests : unit -> rtrace list
(** Completed request traces since the last {!reset}, oldest first
    (bounded: the newest 1024). *)

val reset : unit -> unit
(** Drop completed spans and request traces, and clear the calling
    domain's open-frame state. *)

(** {1 Rendering} *)

val phase_timings : span -> (string * float) list
(** The direct children as [(name, ms)] pairs — the per-phase timing
    summary a response's EXPLAIN block carries. *)

val pp : Format.formatter -> span -> unit
(** The indented tree rendering shown above. *)

val to_json : span -> Json.t
(** [{"name": ..., "ms": ..., "children": [...]}]. *)

val chrome_json : rtrace list -> Json.t
(** Chrome trace-event JSON ([{"traceEvents": [...]}]): one "X"
    complete event per span with microsecond timestamps, one thread per
    trace, the trace id, cost block and GC/allocation summary in the
    root event's [args] — loadable in chrome://tracing or Perfetto. *)
