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

    Every completed request carries one list of named counts (see
    {!rtrace}): its cost block, its GC differential and, while
    {!Sagma_obs.Prof} is active, its span-attributed allocation table. *)

type span = {
  name : string;
  t0 : float;              (** wall-clock start, seconds since the epoch *)
  ms : float;              (** wall-clock duration *)
  children : span list;    (** in execution order *)
}

(** A completed request trace: the trace id (client-supplied or
    generated), its start time, the root span (named ["request"]) and
    [r_counts], the request's accounting as one named list:
    - [cost.<entry>]: the request's {!Metrics.scope} deltas, one per
      cost-block entry in the block's order, plus [cost.bytes_in] and
      [cost.bytes_out] where a server fills them;
    - [gc.<field>]: the [Gc.quick_stat] differential over the request in
      words ([minor_words], [promoted_words], [major_words],
      [minor_collections], [major_collections], [heap_growth]) and the
      major heap's size at the end ([heap_words]). The allocation
      counters are domain-local on OCaml 5, so a request whose row work
      ran on pool domains reports the coordinating domain's share;
    - [alloc.<span>]: words allocated under each span name, largest
      first (only while {!Sagma_obs.Prof} is active).
    [r_counts] is mutable so a server can add its byte counts after
    encoding the response; the {!requests} ring holds the same record,
    so the update is visible in later exports. *)
type rtrace = {
  r_id : string;
  r_start : float;
  r_root : span;
  mutable r_counts : (string * int) list;
}

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span on this domain (or of
    the inherited parent frame, or as a new ambient root). Exceptions
    propagate; the span is still recorded. *)

val with_request : ?trace_id:string -> (unit -> 'a) -> 'a * rtrace
(** Run [f] as one traced request: a root span named ["request"] is
    opened, spans [f] opens (on this domain or on pool workers that
    inherited the context) become its descendants, and a fresh
    {!Metrics.scope} collects the request's counter deltas. Returns the
    completed record, which is also pushed onto the {!requests} ring.
    When metrics are disabled this is just [f ()] paired with an empty
    record (no counts, an empty root span). *)

val current_request_id : unit -> string option
(** The id of the request {!with_request} is tracing on this domain,
    [None] outside a traced request (pool tasks do not inherit it). A
    query router propagates this across the coordinator → shard hop (as
    the trace context of its shard calls), so both nodes record the
    same trace id. *)

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
    summary an EXPLAIN block prints from a request's root span. *)

val pp : Format.formatter -> span -> unit
(** The indented tree rendering shown above. *)

val to_json : span -> Json.t
(** [{"name": ..., "ms": ..., "children": [...]}]. *)

val chrome_json : rtrace list -> Json.t
(** Chrome trace-event JSON ([{"traceEvents": [...]}]): one "X"
    complete event per span with microsecond timestamps, one thread per
    trace; the root event's [args] carry [trace_id] and every entry of
    [r_counts] under its own name — loadable in chrome://tracing or
    Perfetto. *)
