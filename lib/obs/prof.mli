(** Sampling resource profiler: span-attributed allocation sampling plus
    process-level GC gauges.

    {!start} picks the best available sampler: [Gc.Memprof] statistical
    sampling where the runtime supports it (samples attributed to the
    span open on the allocating domain), or — on runtimes where
    multicore Memprof is unavailable, like OCaml 5.0/5.1 — a span-close
    allocation-delta sampler driven through {!Trace.set_prof_hook}.
    Both feed the same two sinks: a process-wide site table
    ({!top_sites}) and the per-request allocation table on each
    {!Trace.rtrace}.

    The profiler is process-global and independent of
    {!Metrics.enabled}; per-request attribution only happens inside
    {!Trace.with_request_full}, which needs metrics on. *)

type site = {
  site_span : string;     (** span name the allocation was attributed to *)
  site_words : int;       (** words charged (scaled to estimate true allocation) *)
  site_samples : int;     (** number of samples/span closes that contributed *)
}

val default_rate : float
(** Memprof sampling rate used when [?rate] is omitted ([1e-3]). *)

val start : ?rate:float -> unit -> unit
(** Start sampling (idempotent). [rate] is the Memprof sampling rate in
    (0, 1]; the span-delta fallback ignores it (it is exact). Raises
    [Invalid_argument] on an out-of-range rate. *)

val stop : unit -> unit
(** Stop sampling (idempotent). The site table survives until {!reset}. *)

val active : unit -> bool

val mode_name : unit -> string
(** ["memprof"], ["spans"] or ["off"] — which sampler is running. *)

val reset : unit -> unit
(** Clear the process-wide site table. *)

val top_sites : ?n:int -> unit -> site list
(** The [n] (default 10) largest allocation sites by words, largest
    first. *)
