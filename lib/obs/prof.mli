(** Sampling resource profiler: span-attributed allocation sampling plus
    process-level GC gauges.

    {!start} installs a span-close allocation-delta sampler through
    {!Trace.set_prof_hook}: every span close charges the words the
    domain allocated inside that span (less its children's) to the
    span's name. It feeds two sinks: a process-wide site table
    ({!top_sites}) and the per-request allocation table on each
    {!Trace.rtrace} (its [alloc.<span>] counts).

    The profiler is process-global and independent of
    {!Metrics.enabled}; per-request attribution only happens inside
    {!Trace.with_request}, which needs metrics on. *)

type site = {
  site_span : string;     (** span name the allocation was attributed to *)
  site_words : int;       (** words charged *)
  site_samples : int;     (** number of span closes that contributed *)
}

val start : unit -> unit
(** Start sampling (idempotent). *)

val stop : unit -> unit
(** Stop sampling (idempotent). The site table survives until {!reset}. *)

val active : unit -> bool

val reset : unit -> unit
(** Clear the process-wide site table. *)

val top_sites : ?n:int -> unit -> site list
(** The [n] (default 10) largest allocation sites by words, largest
    first. *)
