(* The client/server protocol: message types and their wire codecs.

   The deployment model of the paper — a thin trusted client and an
   untrusted storage/compute server — made concrete: the client uploads
   encrypted tables, sends grouping tokens, and receives encrypted
   aggregates it decrypts locally. The server side (see {!Server}) only
   ever calls public-parameter operations.

   Framing is left to {!Transport}; this module encodes single messages.

   Every message starts with a 2-byte magic ("SG") and a version byte,
   so mismatched peers fail loudly instead of misparsing ciphertext
   payloads: bad magic is a {!Sagma_wire.Wire.Decode_error} (not a SAGMA
   frame at all), while a good magic with any version other than
   {!version} raises the typed {!Version_mismatch}. Every peer of the
   protocol ships in this build and the server keeps no stored frames,
   so there is exactly one version: each request carries an optional
   trace context after the header, each response an optional EXPLAIN
   trailer after its payload. *)

module W = Sagma_wire.Wire
module Sse = Sagma_sse.Sse
module Scheme = Sagma.Scheme
module Serialize = Sagma.Serialize
module Metrics = Sagma_obs.Metrics
module Audit = Sagma_obs.Audit
module Trace = Sagma_obs.Trace
module Watchdog = Sagma_obs.Watchdog
module Json = Sagma_obs.Json

let magic = "SG"
let version = 10

exception Version_mismatch of { expected : int; got : int }

let () =
  Printexc.register_printer (function
    | Version_mismatch { expected; got } ->
      Some (Printf.sprintf "Sagma_protocol.Protocol.Version_mismatch (expected %d, got %d)"
              expected got)
    | _ -> None)

let put_header (s : W.sink) : unit =
  W.put_u8 s (Char.code magic.[0]);
  W.put_u8 s (Char.code magic.[1]);
  W.put_u8 s version

let get_header (s : W.source) : unit =
  let m0 = W.get_u8 s in
  let m1 = W.get_u8 s in
  if m0 <> Char.code magic.[0] || m1 <> Char.code magic.[1] then
    W.fail "bad magic 0x%02x%02x (not a SAGMA frame)" m0 m1;
  let v = W.get_u8 s in
  if v <> version then raise (Version_mismatch { expected = version; got = v })

(* Structured failure codes, so clients can react programmatically
   instead of string-matching messages. *)
type error_code =
  | No_such_table
  | Bad_request          (* undecodable or semantically invalid request *)
  | Unsupported          (* recognized but deliberately not implemented *)
  | Version_unsupported  (* peer spoke a different protocol version *)
  | Internal_error
  | Busy                 (* server at its connection limit, retry later *)

let error_code_to_string = function
  | No_such_table -> "no-such-table"
  | Bad_request -> "bad-request"
  | Unsupported -> "unsupported"
  | Version_unsupported -> "version-unsupported"
  | Internal_error -> "internal-error"
  | Busy -> "busy"

let put_error_code (s : W.sink) (c : error_code) : unit =
  W.put_u8 s
    (match c with
     | No_such_table -> 0
     | Bad_request -> 1
     | Unsupported -> 2
     | Version_unsupported -> 3
     | Internal_error -> 4
     | Busy -> 5)

let get_error_code (s : W.source) : error_code =
  match W.get_u8 s with
  | 0 -> No_such_table
  | 1 -> Bad_request
  | 2 -> Unsupported
  | 3 -> Version_unsupported
  | 4 -> Internal_error
  | 5 -> Busy
  | v -> W.fail "bad error code %d" v

type request =
  | Upload of { name : string; table : Scheme.enc_table }
      (** Store an encrypted table under [name] (replaces silently). *)
  | Aggregate of { name : string; token : Scheme.token }
      (** Run AggGrpBy (Algorithm 5) over table [name]. *)
  | Append of {
      name : string;
      row : Scheme.enc_row;
      keywords : Sse.token list;
      row_id : int option;
          (** The row's global position, stamped by a coordinator
              fanning the append across shard replicas so every replica
              agrees on the id (and hence on the owning shard,
              [row_id mod shard_count]). [None] — every direct client
              append — means "next local position". *)
    }
      (** Append one encrypted row; the server extends the SSE postings of
          each keyword token itself (leaking those keywords' identities —
          the usual dynamic-SSE update leakage). *)
  | List_tables
  | Drop of string
  | Stats
      (** Fetch the server's metrics snapshot and audit summary. *)
  | Traces
      (** Fetch the server's completed request-trace ring. *)
  | Health
      (** Fetch the node's health — status, uptime, active alerts,
          and (on a coordinator) the per-shard probe state. *)

(* A request may carry a trace context right after the header — a
   client-supplied id to correlate across systems and a sampling flag
   forcing the server to trace this request. *)
type trace_ctx = { tc_id : string option; tc_sampled : bool }

(* Process-lifetime GC statistics in a StatsReport — the server's
   [Gc.quick_stat] at reply time, word counts as floats because they
   are monotone process totals. *)
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

(* The node's place in a scatter-gather deployment, carried in a
   StatsReport so operators (and the CLI) can see the cluster shape from
   any node. A standalone server reports ["single"], a storage node
   ["shard"] with its index/count, a query router ["coordinator"] with
   the endpoints it fans out to. *)
type topology = {
  tp_role : string;         (* "single" | "shard" | "coordinator" *)
  tp_shard_index : int;     (* this node's slice, -1 for non-shards *)
  tp_shard_count : int;     (* fleet size; 1 for a standalone server *)
  tp_shards : string list;  (* coordinator only: "host:port" endpoints *)
}

(* [sr_snapshot] is the node's own view (a coordinator's is the fleet
   merge); [sr_shards] holds each reachable shard's snapshot under its
   index, empty except on a coordinator. *)
type stats_report = {
  sr_snapshot : Sagma_obs.Metrics.snapshot;
  sr_shards : (int * Sagma_obs.Metrics.snapshot) list;
  sr_audit : Sagma_obs.Audit.summary;
  sr_uptime_s : float;
  sr_start_time : float;   (* epoch seconds *)
  sr_gc : gc_stats;
  sr_topology : topology;
}

(* One shard's health as the coordinator's prober sees it. The
   block carries only reachability and timing data — nothing the §4.2
   leakage function does not already license. *)
type shard_health = {
  shc_index : int;           (* shard slot in the fan-out order *)
  shc_endpoint : string;     (* "host:port" *)
  shc_reachable : bool;
  shc_since : float;         (* epoch seconds the shard has been up (or down) since *)
  shc_failures : int;        (* consecutive probe/call failures, 0 when healthy *)
  shc_last_error : string;   (* "" when none recorded *)
  shc_rtt_ms : float;        (* EWMA probe round-trip, 0. before the first success *)
}

(* The answer to Health. [hr_shards] is empty on single servers and
   storage shards; a coordinator reports one entry per shard. *)
type health_report = {
  hr_status : string;        (* "ok" | "degraded" | "draining" *)
  hr_uptime_s : float;
  hr_alerts : Watchdog.alert list;  (* the watchdog's currently-firing alerts *)
  hr_shards : shard_health list;
}

type response =
  | Ack
  | Tables of (string * int) list  (** table name, row count *)
  | Aggregates of Scheme.agg_result
  | Failed of { code : error_code; message : string }
  | Stats_report of stats_report  (** answer to {!Stats} *)
  | Trace_dump of Trace.rtrace list  (** answer to {!Traces} *)
  | Health_report of health_report  (** answer to {!Health} *)

let failed code fmt = Printf.ksprintf (fun message -> Failed { code; message }) fmt

(* --- codecs ------------------------------------------------------------------ *)

(* One codec for every name → int list: table row counts, snapshot
   counters and gauges, a request trace's counts. *)
let put_counts (s : W.sink) (l : (string * int) list) : unit =
  W.put_list s
    (fun s (name, v) ->
      W.put_bytes s name;
      W.put_int s v)
    l

let get_counts (s : W.source) : (string * int) list =
  W.get_list s (fun s ->
      let name = W.get_bytes s in
      let v = W.get_int s in
      (name, v))

(* A histogram is its raw bucket counts on the one grid every node
   shares; readers derive cumulative buckets and quantiles. The count
   array arrives from the network, so its length is checked. *)
let put_hist_stats (s : W.sink) (h : Metrics.hist_stats) : unit =
  W.put_int s h.Metrics.h_count;
  W.put_f64 s h.Metrics.h_sum;
  W.put_f64 s h.Metrics.h_min;
  W.put_f64 s h.Metrics.h_max;
  W.put_array s W.put_int h.Metrics.h_counts

let get_hist_stats (s : W.source) : Metrics.hist_stats =
  let h_count = W.get_int s in
  let h_sum = W.get_f64 s in
  let h_min = W.get_f64 s in
  let h_max = W.get_f64 s in
  let h_counts = W.get_array s W.get_int in
  let slots = Array.length Metrics.bucket_bounds + 1 in
  if Array.length h_counts <> slots then
    W.fail "histogram has %d bucket counts, want %d" (Array.length h_counts) slots;
  { Metrics.h_count; h_sum; h_min; h_max; h_counts }

let put_snapshot (s : W.sink) (snap : Metrics.snapshot) : unit =
  put_counts s snap.Metrics.counters;
  put_counts s snap.Metrics.gauges;
  W.put_list s
    (fun s (name, h) ->
      W.put_bytes s name;
      put_hist_stats s h)
    snap.Metrics.histograms

let get_snapshot (s : W.source) : Metrics.snapshot =
  let counters = get_counts s in
  let gauges = get_counts s in
  let histograms =
    W.get_list s (fun s ->
        let name = W.get_bytes s in
        let h = get_hist_stats s in
        (name, h))
  in
  { Metrics.counters; gauges; histograms }

(* --- tracing codecs ------------------------------------------------------- *)

let put_trace_ctx (s : W.sink) (tc : trace_ctx) : unit =
  W.put_option s (fun s id -> W.put_bytes s id) tc.tc_id;
  W.put_bool s tc.tc_sampled

let get_trace_ctx (s : W.source) : trace_ctx =
  let tc_id = W.get_option s W.get_bytes in
  let tc_sampled = W.get_bool s in
  { tc_id; tc_sampled }

let rec put_span (s : W.sink) (sp : Trace.span) : unit =
  W.put_bytes s sp.Trace.name;
  W.put_f64 s sp.Trace.t0;
  W.put_f64 s sp.Trace.ms;
  W.put_list s put_span sp.Trace.children

(* A hostile frame could nest spans arbitrarily deep and overflow the
   decoder's stack; real trees are a handful of levels. *)
let max_span_depth = 64

let rec get_span ~(depth : int) (s : W.source) : Trace.span =
  if depth > max_span_depth then W.fail "span tree deeper than %d levels" max_span_depth;
  let name = W.get_bytes s in
  let t0 = W.get_f64 s in
  let ms = W.get_f64 s in
  let children = W.get_list s (get_span ~depth:(depth + 1)) in
  { Trace.name; t0; ms; children }

let put_rtrace (s : W.sink) (rt : Trace.rtrace) : unit =
  W.put_bytes s rt.Trace.r_id;
  W.put_f64 s rt.Trace.r_start;
  put_span s rt.Trace.r_root;
  put_counts s rt.Trace.r_counts

let get_rtrace (s : W.source) : Trace.rtrace =
  let r_id = W.get_bytes s in
  let r_start = W.get_f64 s in
  let r_root = get_span ~depth:0 s in
  let r_counts = get_counts s in
  { Trace.r_id; r_start; r_root; r_counts }

(* Stats report sections: the process-lifetime GC stats and the
   topology. *)

let put_gc_stats (s : W.sink) (g : gc_stats) : unit =
  W.put_f64 s g.gs_minor_words;
  W.put_f64 s g.gs_promoted_words;
  W.put_f64 s g.gs_major_words;
  W.put_int s g.gs_minor_collections;
  W.put_int s g.gs_major_collections;
  W.put_int s g.gs_compactions;
  W.put_int s g.gs_heap_words;
  W.put_int s g.gs_top_heap_words

let get_gc_stats (s : W.source) : gc_stats =
  let gs_minor_words = W.get_f64 s in
  let gs_promoted_words = W.get_f64 s in
  let gs_major_words = W.get_f64 s in
  let gs_minor_collections = W.get_int s in
  let gs_major_collections = W.get_int s in
  let gs_compactions = W.get_int s in
  let gs_heap_words = W.get_int s in
  let gs_top_heap_words = W.get_int s in
  { gs_minor_words; gs_promoted_words; gs_major_words; gs_minor_collections;
    gs_major_collections; gs_compactions; gs_heap_words; gs_top_heap_words }

let put_topology (s : W.sink) (t : topology) : unit =
  W.put_bytes s t.tp_role;
  W.put_int s t.tp_shard_index;
  W.put_int s t.tp_shard_count;
  W.put_list s W.put_bytes t.tp_shards

let get_topology (s : W.source) : topology =
  let tp_role = W.get_bytes s in
  let tp_shard_index = W.get_int s in
  let tp_shard_count = W.get_int s in
  let tp_shards = W.get_list s W.get_bytes in
  { tp_role; tp_shard_index; tp_shard_count; tp_shards }

let put_stats_report (s : W.sink) (r : stats_report) : unit =
  put_snapshot s r.sr_snapshot;
  W.put_list s
    (fun s (i, snap) ->
      W.put_int s i;
      put_snapshot s snap)
    r.sr_shards;
  W.put_int s r.sr_audit.Audit.s_requests;
  W.put_int s r.sr_audit.Audit.s_probes;
  W.put_int s r.sr_audit.Audit.s_checks_run;
  W.put_int s r.sr_audit.Audit.s_check_failures;
  W.put_f64 s r.sr_uptime_s;
  W.put_f64 s r.sr_start_time;
  put_gc_stats s r.sr_gc;
  put_topology s r.sr_topology

let get_stats_report (s : W.source) : stats_report =
  let sr_snapshot = get_snapshot s in
  let sr_shards =
    W.get_list s (fun s ->
        let i = W.get_int s in
        let snap = get_snapshot s in
        (i, snap))
  in
  let s_requests = W.get_int s in
  let s_probes = W.get_int s in
  let s_checks_run = W.get_int s in
  let s_check_failures = W.get_int s in
  let sr_uptime_s = W.get_f64 s in
  let sr_start_time = W.get_f64 s in
  let sr_gc = get_gc_stats s in
  let sr_topology = get_topology s in
  { sr_snapshot; sr_shards;
    sr_audit = { Audit.s_requests; s_probes; s_checks_run; s_check_failures };
    sr_uptime_s; sr_start_time; sr_gc; sr_topology }

(* Health codecs. *)

let put_alert (s : W.sink) (a : Watchdog.alert) : unit =
  W.put_bytes s a.Watchdog.a_rule;
  W.put_f64 s a.Watchdog.a_since;
  W.put_f64 s a.Watchdog.a_value;
  W.put_f64 s a.Watchdog.a_threshold;
  W.put_bytes s a.Watchdog.a_message

let get_alert (s : W.source) : Watchdog.alert =
  let a_rule = W.get_bytes s in
  let a_since = W.get_f64 s in
  let a_value = W.get_f64 s in
  let a_threshold = W.get_f64 s in
  let a_message = W.get_bytes s in
  { Watchdog.a_rule; a_since; a_value; a_threshold; a_message }

let put_shard_health (s : W.sink) (sh : shard_health) : unit =
  W.put_int s sh.shc_index;
  W.put_bytes s sh.shc_endpoint;
  W.put_bool s sh.shc_reachable;
  W.put_f64 s sh.shc_since;
  W.put_int s sh.shc_failures;
  W.put_bytes s sh.shc_last_error;
  W.put_f64 s sh.shc_rtt_ms

let get_shard_health (s : W.source) : shard_health =
  let shc_index = W.get_int s in
  let shc_endpoint = W.get_bytes s in
  let shc_reachable = W.get_bool s in
  let shc_since = W.get_f64 s in
  let shc_failures = W.get_int s in
  let shc_last_error = W.get_bytes s in
  let shc_rtt_ms = W.get_f64 s in
  { shc_index; shc_endpoint; shc_reachable; shc_since; shc_failures; shc_last_error;
    shc_rtt_ms }

let put_health_report (s : W.sink) (h : health_report) : unit =
  W.put_bytes s h.hr_status;
  W.put_f64 s h.hr_uptime_s;
  W.put_list s put_alert h.hr_alerts;
  W.put_list s put_shard_health h.hr_shards

let get_health_report (s : W.source) : health_report =
  let hr_status = W.get_bytes s in
  let hr_uptime_s = W.get_f64 s in
  let hr_alerts = W.get_list s get_alert in
  let hr_shards = W.get_list s get_shard_health in
  { hr_status; hr_uptime_s; hr_alerts; hr_shards }

(* [?trace] is the trace context, written (as an option) right after
   the header. *)
let put_request ?(trace : trace_ctx option) (s : W.sink) (r : request) : unit =
  put_header s;
  W.put_option s put_trace_ctx trace;
  match r with
  | Upload { name; table } ->
    W.put_u8 s 0;
    W.put_bytes s name;
    Serialize.put_enc_table s table
  | Aggregate { name; token } ->
    W.put_u8 s 1;
    W.put_bytes s name;
    Serialize.put_token s token
  | Append { name; row; keywords; row_id } ->
    W.put_u8 s 2;
    W.put_bytes s name;
    Serialize.put_enc_row s row;
    W.put_list s Serialize.put_sse_token keywords;
    W.put_option s W.put_int row_id
  | List_tables -> W.put_u8 s 3
  | Drop name ->
    W.put_u8 s 4;
    W.put_bytes s name
  | Stats -> W.put_u8 s 5
  | Traces -> W.put_u8 s 6
  | Health -> W.put_u8 s 7

(* Returns the trace context alongside the request, so a server can
   honor the peer's sampling request (see {!Server.handle_encoded}). *)
let get_request (s : W.source) : trace_ctx option * request =
  get_header s;
  let trace = W.get_option s get_trace_ctx in
  let req =
    match W.get_u8 s with
    | 0 ->
      let name = W.get_bytes s in
      let table = Serialize.get_enc_table s in
      Upload { name; table }
    | 1 ->
      let name = W.get_bytes s in
      let token = Serialize.get_token s in
      Aggregate { name; token }
    | 2 ->
      let name = W.get_bytes s in
      let row = Serialize.get_enc_row s in
      let keywords = W.get_list s Serialize.get_sse_token in
      let row_id = W.get_option s W.get_int in
      Append { name; row; keywords; row_id }
    | 3 -> List_tables
    | 4 -> Drop (W.get_bytes s)
    | 5 -> Stats
    | 6 -> Traces
    | 7 -> Health
    | t -> W.fail "bad request tag %d" t
  in
  (trace, req)

(* [?explain] is the EXPLAIN trailer — the request's trace record —
   written (as an option) after the payload. *)
let put_response ?(explain : Trace.rtrace option) (s : W.sink) (r : response) : unit =
  put_header s;
  (match r with
   | Ack -> W.put_u8 s 0
   | Tables ts ->
     W.put_u8 s 1;
     put_counts s ts
   | Aggregates a ->
     W.put_u8 s 2;
     Serialize.put_agg_result s a
   | Failed { code; message } ->
     W.put_u8 s 3;
     put_error_code s code;
     W.put_bytes s message
   | Stats_report r ->
     W.put_u8 s 4;
     put_stats_report s r
   | Trace_dump ts ->
     W.put_u8 s 5;
     W.put_list s put_rtrace ts
   | Health_report h ->
     W.put_u8 s 6;
     put_health_report s h);
  W.put_option s put_rtrace explain

let get_response (s : W.source) : response * Trace.rtrace option =
  get_header s;
  let resp =
    match W.get_u8 s with
    | 0 -> Ack
    | 1 -> Tables (get_counts s)
    | 2 -> Aggregates (Serialize.get_agg_result s)
    | 3 ->
      let code = get_error_code s in
      let message = W.get_bytes s in
      Failed { code; message }
    | 4 -> Stats_report (get_stats_report s)
    | 5 -> Trace_dump (W.get_list s get_rtrace)
    | 6 -> Health_report (get_health_report s)
    | t -> W.fail "bad response tag %d" t
  in
  let explain = W.get_option s get_rtrace in
  (resp, explain)

let encode_request ?trace (r : request) : string =
  W.encode (fun s r -> put_request ?trace s r) r

let decode_request_x (s : string) : trace_ctx option * request = W.decode get_request s
let decode_request (s : string) : request = snd (decode_request_x s)

let encode_response ?explain (r : response) : string =
  W.encode (fun s r -> put_response ?explain s r) r

let decode_response_x (s : string) : response * Trace.rtrace option = W.decode get_response s
let decode_response (s : string) : response = fst (decode_response_x s)

(* --- JSON rendering ----------------------------------------------------------

   `sagma_cli stats --json` must carry everything the human and
   Prometheus paths render — snapshot, per-shard snapshots,
   uptime/start-time, audit summary, GC block, topology — as one
   object. Kept here next to the
   types so the shape and the codec evolve together. *)

let stats_report_to_json (r : stats_report) : Json.t =
  let a = r.sr_audit and g = r.sr_gc and t = r.sr_topology in
  Obj
    [ ("snapshot", Metrics.snapshot_to_json r.sr_snapshot);
      ( "shards",
        Arr
          (List.map
             (fun (i, snap) ->
               Json.Obj [ ("index", Json.int i); ("snapshot", Metrics.snapshot_to_json snap) ])
             r.sr_shards) );
      ("uptime_s", Num r.sr_uptime_s);
      ("start_time", Num r.sr_start_time);
      ( "audit",
        Obj
          [ ("requests", Json.int a.Audit.s_requests); ("probes", Json.int a.Audit.s_probes);
            ("checks_run", Json.int a.Audit.s_checks_run);
            ("check_failures", Json.int a.Audit.s_check_failures) ] );
      ( "gc",
        Obj
          [ ("minor_words", Num g.gs_minor_words); ("promoted_words", Num g.gs_promoted_words);
            ("major_words", Num g.gs_major_words);
            ("minor_collections", Json.int g.gs_minor_collections);
            ("major_collections", Json.int g.gs_major_collections);
            ("compactions", Json.int g.gs_compactions); ("heap_words", Json.int g.gs_heap_words);
            ("top_heap_words", Json.int g.gs_top_heap_words) ] );
      ( "topology",
        Obj
          [ ("role", Str t.tp_role); ("shard_index", Json.int t.tp_shard_index);
            ("shard_count", Json.int t.tp_shard_count);
            ("shards", Arr (List.map (fun e -> Json.Str e) t.tp_shards)) ] ) ]

let health_report_to_json (h : health_report) : Json.t =
  let alert (a : Watchdog.alert) =
    Json.Obj
      [ ("rule", Str a.a_rule); ("since", Num a.a_since); ("value", Num a.a_value);
        ("threshold", Num a.a_threshold); ("message", Str a.a_message) ]
  in
  let shard sh =
    Json.Obj
      [ ("index", Json.int sh.shc_index); ("endpoint", Str sh.shc_endpoint);
        ("reachable", Bool sh.shc_reachable); ("since", Num sh.shc_since);
        ("failures", Json.int sh.shc_failures); ("last_error", Str sh.shc_last_error);
        ("rtt_ms", Num sh.shc_rtt_ms) ]
  in
  Obj
    [ ("status", Str h.hr_status); ("uptime_s", Num h.hr_uptime_s);
      ("alerts", Arr (List.map alert h.hr_alerts)); ("shards", Arr (List.map shard h.hr_shards)) ]
