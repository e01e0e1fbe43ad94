(** Leakage auditor: access-pattern traces checked against a declared
    leakage prediction.

    The honest-but-curious server of the paper is allowed to learn
    exactly the leakage function L of §4.2 — the queried attribute
    identifiers plus the SSE trace (search pattern and matching row
    ids). When auditing is on, the instrumented server records every
    index access it performs as a {!probe}; {!check} then replays the
    trace against a prediction derived from the declared leakage and
    fails loudly if the server touched anything the leakage does not
    predict.

    This module is generic (it lives below the sagma library): a probe
    is a [(kind, tag, matches)] triple with opaque strings. The
    SAGMA-aware glue that builds the prediction from
    a query token's predicted leakage lives in [Sagma.Leakage].

    Recording is off by default; when {!enabled} is false every hook is
    a single load-and-branch. *)

type probe = {
  p_kind : string;     (** access class, e.g. ["sse.bucket"] or ["oxt.stag"] *)
  p_tag : string;      (** deterministic token identifier (search pattern) *)
  p_matches : int list;(** row ids whose postings matched (access pattern) *)
}

type trace = {
  t_id : int;           (** request id, from {!Log.next_request_id} *)
  t_probes : probe list;(** in execution order *)
  t_rows_paired : int;  (** ciphertext rows entering the pairing loop *)
}

type verdict = Pass | Fail of string list

val enabled : bool ref
(** The audit switch, [false] by default. Independent of
    [Metrics.enabled] so leakage auditing can run without timing
    collection (and vice versa). *)

val set_enabled : bool -> unit

(** {1 Recording (server-side hooks)} *)

val begin_request : int -> unit
(** Open a trace for request [id]; any previous open trace is dropped. *)

val probe : kind:string -> tag:string -> matches:int list -> unit
(** Record one index access against the open trace (no-op without one). *)

val rows_paired : int -> unit
(** Add to the open trace's paired-row count. *)

val end_request : unit -> trace option
(** Close and return the open trace, retaining it for {!traces} (a
    bounded buffer keeps the most recent 1024). [None] when auditing is
    off or no trace is open. *)

(** {1 Inspection} *)

val traces : unit -> trace list
(** Completed traces, oldest first. *)

val reset : unit -> unit
(** Drop all traces (open and completed) and zero the check counters. *)

(** {1 Checking} *)

val check :
  ?max_rows_paired:int ->
  predicted:(string * string * int list) list ->
  trace ->
  verdict
(** [check ~predicted t] verifies that every probe in [t] appears in
    [predicted] — same [(kind, tag)] with exactly the predicted row ids
    (order-insensitive; repeats collapse, since repetition is the
    declared search pattern) — and, when [max_rows_paired] is given,
    that no more rows entered the pairing loop than the prediction
    allows. Each discrepancy contributes one human-readable line to
    [Fail]. *)

val pp_verdict : Format.formatter -> verdict -> unit

type summary = {
  s_requests : int;       (** completed traces retained *)
  s_probes : int;         (** total probes across retained traces *)
  s_checks_run : int;
  s_check_failures : int;
}

val summary : unit -> summary
(** Cheap aggregate for the [Stats] RPC and CLI display. *)
