(** Client/server protocol messages and their wire codecs.

    The paper's deployment model made concrete: a thin trusted client
    uploads encrypted tables, sends grouping tokens, and decrypts the
    returned encrypted aggregates. Framing is {!Transport}'s job.

    Every message is prefixed with the magic {!magic} and the version
    byte {!version}. Every peer of the protocol ships in the same build
    and the server stores no frames, so there is one version only: a
    frame claiming any other version raises {!Version_mismatch}, and a
    frame without the magic raises [Sagma_wire.Wire.Decode_error]. *)

module Sse = Sagma_sse.Sse
module Scheme = Sagma.Scheme

val magic : string
(** ["SG"] — the two bytes opening every frame. *)

val version : int
(** The one wire protocol version this build speaks (currently 10). *)

exception Version_mismatch of { expected : int; got : int }

(** Structured failure codes, so clients can react programmatically
    instead of string-matching messages. *)
type error_code =
  | No_such_table
  | Bad_request          (** undecodable or semantically invalid request *)
  | Unsupported          (** recognized but deliberately not implemented *)
  | Version_unsupported  (** peer spoke a different protocol version *)
  | Internal_error
  | Busy                 (** server at its connection limit, retry later *)

val error_code_to_string : error_code -> string
(** Stable kebab-case name, e.g. ["no-such-table"]. *)

type request =
  | Upload of { name : string; table : Scheme.enc_table }
  | Aggregate of { name : string; token : Scheme.token }
  | Append of {
      name : string;
      row : Scheme.enc_row;
      keywords : Sse.token list;
      row_id : int option;
          (** The global row position a coordinator stamps when
              fanning an append across shard replicas, so every replica
              agrees on the id (and the owning shard,
              [row_id mod shard_count]). [None] means "next local
              position". *)
    }
      (** The server extends each keyword token's postings itself —
          standard dynamic-SSE update leakage. *)
  | List_tables
  | Drop of string
  | Stats
      (** Fetch the server's metrics snapshot and audit summary. *)
  | Traces
      (** Fetch the server's completed request-trace ring. *)
  | Health
      (** Fetch the node's health — status, uptime, the watchdog's
          active alerts, and (on a coordinator) the per-shard probe
          state. *)

(** The optional trace context after a request header — a
    client-supplied id to correlate across systems, and a sampling flag
    forcing the server to trace this request. *)
type trace_ctx = { tc_id : string option; tc_sampled : bool }

(** Process-lifetime GC statistics in a {!Stats_report} — the
    server's [Gc.quick_stat] at reply time. Word counts are floats
    because they are monotone process totals. *)
type gc_stats = {
  gs_minor_words : float;
  gs_promoted_words : float;
  gs_major_words : float;
  gs_minor_collections : int;
  gs_major_collections : int;
  gs_compactions : int;
  gs_heap_words : int;
  gs_top_heap_words : int;
}

(** The node's place in a scatter-gather deployment, carried in a
    {!Stats_report} so operators can see the cluster shape from any
    node: ["single"] for a standalone server, ["shard"] (with
    index/count) for a storage node serving slice
    [row mod tp_shard_count = tp_shard_index], ["coordinator"] (with
    the endpoint list) for a query router. *)
type topology = {
  tp_role : string;
  tp_shard_index : int;     (** -1 for non-shards *)
  tp_shard_count : int;     (** 1 for a standalone server *)
  tp_shards : string list;  (** coordinator only: "host:port" endpoints *)
}

type stats_report = {
  sr_snapshot : Sagma_obs.Metrics.snapshot;
      (** the node's own snapshot; on a coordinator, the fleet merge of
          its own and every reachable shard's *)
  sr_shards : (int * Sagma_obs.Metrics.snapshot) list;
      (** coordinator only: each reachable shard's snapshot under its
          index in the fan-out order; empty on other nodes *)
  sr_audit : Sagma_obs.Audit.summary;
  sr_uptime_s : float;  (** seconds since the server started *)
  sr_start_time : float;  (** server start, epoch seconds *)
  sr_gc : gc_stats;  (** the server's GC/heap state *)
  sr_topology : topology;  (** the node's cluster role *)
}

(** One shard's health as the coordinator's prober sees it. The
    block carries only reachability/timing data — nothing the §4.2
    leakage function does not already license. *)
type shard_health = {
  shc_index : int;          (** shard slot in the fan-out order *)
  shc_endpoint : string;    (** "host:port" *)
  shc_reachable : bool;
  shc_since : float;        (** epoch seconds up (or down) since *)
  shc_failures : int;       (** consecutive probe/call failures *)
  shc_last_error : string;  (** [""] when none recorded *)
  shc_rtt_ms : float;       (** EWMA probe RTT; 0. before the first success *)
}

(** The answer to {!Health}. [hr_shards] is empty on single servers
    and storage shards; a coordinator reports one entry per shard. *)
type health_report = {
  hr_status : string;  (** ["ok"] | ["degraded"] | ["draining"] *)
  hr_uptime_s : float;
  hr_alerts : Sagma_obs.Watchdog.alert list;  (** currently-firing alerts *)
  hr_shards : shard_health list;
}

type response =
  | Ack
  | Tables of (string * int) list  (** name, row count *)
  | Aggregates of Scheme.agg_result
  | Failed of { code : error_code; message : string }
  | Stats_report of stats_report  (** answer to {!Stats} *)
  | Trace_dump of Sagma_obs.Trace.rtrace list  (** answer to {!Traces} *)
  | Health_report of health_report  (** answer to {!Health} *)

val failed : error_code -> ('a, unit, string, response) format4 -> 'a
(** [failed code fmt ...] builds a {!Failed} response. *)

val stats_report_to_json : stats_report -> Sagma_obs.Json.t
(** One JSON object carrying everything a {!Stats_report} holds —
    [snapshot], [shards] (a list of [{index, snapshot}]),
    [uptime_s]/[start_time], [audit], [gc], [topology] — so
    `sagma stats --json` drops nothing the human and Prometheus paths
    render. *)

val health_report_to_json : health_report -> Sagma_obs.Json.t
(** One JSON object: [status], [uptime_s], [alerts], [shards]. *)

val encode_request : ?trace:trace_ctx -> request -> string
val decode_request : string -> request
val decode_request_x : string -> trace_ctx option * request
(** Like {!decode_request}, but also returns the trace context. *)

val encode_response : ?explain:Sagma_obs.Trace.rtrace -> response -> string
(** [?explain] is the EXPLAIN trailer: the traced request's
    {!Sagma_obs.Trace.rtrace} (id, start, span tree and named counts),
    written after the payload. *)

val decode_response : string -> response
val decode_response_x : string -> response * Sagma_obs.Trace.rtrace option
(** Decoders raise {!Version_mismatch} on a frame whose version byte is
    not {!version}, and [Sagma_wire.Wire.Decode_error] on malformed
    frames (bad magic, unknown tags or error codes, truncation, trailing
    bytes). {!decode_response} silently drops an EXPLAIN trailer,
    {!decode_response_x} returns it. *)
