(* The untrusted server's request handler.

   Deliberately key-free: the state holds only what the client uploaded
   (semantically secure ciphertexts, the SSE index, public parameters),
   and every operation is expressible from public data — aggregation is
   {!Sagma.Scheme.aggregate}, appends extend SSE postings from tokens.
   The handler is transport-agnostic; {!Transport} adds framing.

   A server can also be one storage node of a scatter-gather fleet
   ([?shard]): storage stays replicated (each node holds every uploaded
   row — the SSE index is PRF-opaque, so the server cannot split it),
   but compute is partitioned: aggregation only pairs the rows the node
   owns ([row mod count = index]), so a coordinator can ⊕-merge the
   per-shard partials into the full answer.

   The coordinator is a server too ([?fleet]): it holds no tables and
   hands every table request to its {!Router} fan-out, but it answers
   Stats, Traces and Health and runs the request pipeline exactly as
   the other two roles do. *)

module Sse = Sagma_sse.Sse
module Scheme = Sagma.Scheme
module Obs = Sagma_obs.Metrics
module Log = Sagma_obs.Log
module Audit = Sagma_obs.Audit
module Trace = Sagma_obs.Trace
module Pool = Sagma_pool.Pool
module Watchdog = Sagma_obs.Watchdog

let m_requests = Obs.counter "proto.requests"
let m_failed = Obs.counter "proto.requests_failed"
let m_bytes_in = Obs.counter "proto.bytes_in"
let m_bytes_out = Obs.counter "proto.bytes_out"
let h_request_ms = Obs.histogram "proto.request_ms"

(* Registry keys outlive any client's ability to drop them only if we
   let arbitrary strings in; an empty name is invisible in listings and
   a multi-MiB one is a memory-amplification vector. *)
let max_table_name_len = 1024

(* One registered table: the immutable snapshot plus a per-token
   posting-count cache keyed by {!Sse.token_id}. Without the cache every
   append re-walks each keyword's postings ([Sse.search]) under the
   registry lock just to learn the next counter — O(postings) per
   keyword, quadratic over a stream of appends. The first append of a
   token pays one search; after that the counter is O(1). Upload
   replaces the whole entry, so the cache can never outlive its index. *)
type entry = {
  mutable table : Scheme.enc_table;
  post_counts : (string, int) Hashtbl.t;
}

(* Connection handlers may run on several pool domains at once, so the
   table registry takes a lock around every access. Aggregation — the
   expensive part — runs OUTSIDE the lock on a snapshot: [enc_table]
   values are immutable (Append replaces the whole record rather than
   mutating it), so a concurrent writer can at worst make the snapshot
   stale, never torn. [agg_pool] optionally parallelizes row work within
   each aggregation; it must be a different pool from the one running
   connections (a task awaiting futures on its own pool deadlocks). *)
type t = {
  lock : Mutex.t;
  tables : (string, entry) Hashtbl.t;
  agg_pool : Pool.t option;
  shard : (int * int) option;  (* (index, count) storage-node slice *)
  fleet : Router.t option;     (* coordinator: table requests fan out here *)
  trace_sample : int;      (* trace every Nth request; 0 disables *)
  slow_query_ms : float;   (* requests over this emit a slow_query event; 0. disables *)
  started : float;         (* epoch seconds, for Stats uptime *)
  watchdog : Watchdog.t option;  (* active alerts served in Health replies *)
  draining : bool Atomic.t;      (* graceful shutdown begun: Health says "draining" *)
}

let create ?agg_pool ?shard ?fleet ?(trace_sample = 0) ?(slow_query_ms = 0.) ?watchdog () : t =
  (match shard with
   | Some (i, n) when n < 1 || i < 0 || i >= n ->
     invalid_arg (Printf.sprintf "Server.create: shard %d/%d out of range" i n)
   | _ -> ());
  if Option.is_some fleet && (Option.is_some shard || Option.is_some agg_pool) then
    invalid_arg "Server.create: a coordinator (?fleet) takes neither ?shard nor ?agg_pool";
  { lock = Mutex.create (); tables = Hashtbl.create 8; agg_pool; shard; fleet; trace_sample;
    slow_query_ms; started = Unix.gettimeofday (); watchdog;
    draining = Atomic.make false }

let set_draining (s : t) (d : bool) : unit = Atomic.set s.draining d

let with_lock (s : t) (f : unit -> 'a) : 'a =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let table_names (s : t) : (string * int) list =
  with_lock s (fun () ->
      Hashtbl.fold (fun name e acc -> (name, Array.length e.table.Scheme.rows) :: acc) s.tables [])
  |> List.sort compare

(* Stable kebab-case name of the request constructor (log field). *)
let request_kind : Protocol.request -> string = function
  | Protocol.Upload _ -> "upload"
  | Protocol.Aggregate _ -> "aggregate"
  | Protocol.Append _ -> "append"
  | Protocol.List_tables -> "list-tables"
  | Protocol.Drop _ -> "drop"
  | Protocol.Stats -> "stats"
  | Protocol.Traces -> "traces"
  | Protocol.Health -> "health"

(* The gc section of a Stats reply. *)
let gc_stats_now () : Protocol.gc_stats =
  let g = Gc.quick_stat () in
  { Protocol.gs_minor_words = g.Gc.minor_words; gs_promoted_words = g.Gc.promoted_words;
    gs_major_words = g.Gc.major_words; gs_minor_collections = g.Gc.minor_collections;
    gs_major_collections = g.Gc.major_collections; gs_compactions = g.Gc.compactions;
    gs_heap_words = g.Gc.heap_words; gs_top_heap_words = g.Gc.top_heap_words }

let handle (s : t) (req : Protocol.request) : Protocol.response =
  match (req, s.fleet) with
  | Protocol.Stats, _ ->
    (* A read-only snapshot: safe to serve even while the registry is
       being written — counters are atomic, histograms lock per cell.
       A coordinator's covers the fleet. *)
    Protocol.Stats_report
      { Protocol.sr_snapshot =
          (match s.fleet with Some r -> Router.federated_snapshot r | None -> Obs.snapshot ());
        sr_audit = Audit.summary ();
        sr_uptime_s = Unix.gettimeofday () -. s.started; sr_start_time = s.started;
        sr_gc = Some (gc_stats_now ());
        sr_topology =
          Some
            (match (s.fleet, s.shard) with
             | Some r, _ -> Router.topology r
             | None, Some (i, n) ->
               { Protocol.tp_role = "shard"; tp_shard_index = i; tp_shard_count = n;
                 tp_shards = [] }
             | None, None ->
               { Protocol.tp_role = "single"; tp_shard_index = -1; tp_shard_count = 1;
                 tp_shards = [] }) }
  | Protocol.Traces, _ -> Protocol.Trace_dump (Trace.requests ())
  | Protocol.Health, _ ->
    (* Draining beats everything; a firing alert or (on a coordinator)
       an unreachable shard means degraded. *)
    let alerts = match s.watchdog with Some w -> Watchdog.active w | None -> [] in
    let shards = match s.fleet with Some r -> Router.shard_health r | None -> [] in
    Protocol.Health_report
      { Protocol.hr_status =
          (if Atomic.get s.draining then "draining"
           else if alerts <> [] || List.exists (fun sh -> not sh.Protocol.shc_reachable) shards
           then "degraded"
           else "ok");
        hr_uptime_s = Unix.gettimeofday () -. s.started; hr_alerts = alerts;
        hr_shards = shards }
  | Protocol.Upload { name = ""; _ }, _ ->
    Protocol.failed Protocol.Bad_request "table name must not be empty"
  | Protocol.Upload { name; _ }, _ when String.length name > max_table_name_len ->
    Protocol.failed Protocol.Bad_request "table name too long (%d bytes, max %d)"
      (String.length name) max_table_name_len
  | _, Some r -> Router.handle r req
  | Protocol.Upload { name; table }, None ->
    with_lock s (fun () ->
        Hashtbl.replace s.tables name { table; post_counts = Hashtbl.create 8 });
    Protocol.Ack
  | Protocol.List_tables, None -> Protocol.Tables (table_names s)
  | Protocol.Drop name, None ->
    if
      with_lock s (fun () ->
          let existed = Hashtbl.mem s.tables name in
          if existed then Hashtbl.remove s.tables name;
          existed)
    then Protocol.Ack
    else Protocol.failed Protocol.No_such_table "no such table %S" name
  | Protocol.Aggregate { name; token }, None -> begin
    (* Snapshot under the lock, aggregate outside it: concurrent
       requests pay for the lookup, not for each other's pairings. *)
    match with_lock s (fun () -> Hashtbl.find_opt s.tables name) with
    | None -> Protocol.failed Protocol.No_such_table "no such table %S" name
    | Some e -> (
      let et = with_lock s (fun () -> e.table) in
      (* A storage node only pairs the rows of its slice; the
         coordinator ⊕-merges the per-shard partials back into the
         full answer. *)
      let owned =
        match s.shard with
        | Some (i, n) when n > 1 -> Some (fun r -> r mod n = i)
        | _ -> None
      in
      (* The "aggregate" span mirrors Scheme.query's client-side phase
         name, so a sampled server trace reads request → aggregate →
         filter/bucket_intersection/indicator_coeffs/pairing_loop. *)
      try
        Protocol.Aggregates
          (Trace.with_span "aggregate" (fun () ->
               Scheme.aggregate ?pool:s.agg_pool ?owned et token))
      with
      | Invalid_argument msg -> Protocol.failed Protocol.Bad_request "%s" msg
      | Failure msg -> Protocol.failed Protocol.Internal_error "%s" msg)
  end
  | Protocol.Append { name; row; keywords; row_id }, None ->
    (* The whole read-modify-write stays under the lock so two
       concurrent appends cannot lose one row. *)
    with_lock s (fun () ->
        match Hashtbl.find_opt s.tables name with
        | None -> Protocol.failed Protocol.No_such_table "no such table %S" name
        | Some e when e.table.Scheme.index_mode = Scheme.Oxt_conjunctive ->
          ignore (row, keywords);
          Protocol.failed Protocol.Unsupported
            "remote appends are unsupported for OXT-indexed tables"
        | Some e -> (
          let et = e.table in
          let local = Array.length et.Scheme.rows in
          let encode_row = Sagma_wire.Wire.encode Sagma.Serialize.put_enc_row in
          match row_id with
          | Some id when 0 <= id && id < local && encode_row et.Scheme.rows.(id) = encode_row row ->
            (* A coordinator retry of a row this replica already applied
               (another shard failed the first attempt): acknowledging it
               unchanged lets the fleet converge instead of wedging. *)
            Protocol.Ack
          | Some id when id <> local ->
            (* A coordinator-stamped id that is not our next position
               means this replica diverged from the fleet; refusing is
               the only answer that keeps the ownership arithmetic
               ([id mod count]) meaningful. *)
            Protocol.failed Protocol.Bad_request
              "append out of sync: coordinator row id %d, local next row %d" id local
          | _ -> (
            try
              let id = local in
              (* Each keyword's next counter comes from the cache when
                 warm; a cold token pays one [Sse.search]. The cache is
                 committed only after every [add_with_token] succeeded,
                 so a failed append cannot desynchronize it. *)
              let index, bumped =
                List.fold_left
                  (fun (index, bumped) tok ->
                    let tid = Sse.token_id tok in
                    let counter =
                      match List.assoc_opt tid bumped with
                      | Some c -> c
                      | None -> (
                        match Hashtbl.find_opt e.post_counts tid with
                        | Some c -> c
                        | None -> List.length (Sse.search index tok))
                    in
                    (Sse.add_with_token index tok ~counter id, (tid, counter + 1) :: bumped))
                  (et.Scheme.index, []) keywords
              in
              List.iter (fun (tid, c) -> Hashtbl.replace e.post_counts tid c) bumped;
              e.table <- { et with Scheme.rows = Array.append et.Scheme.rows [| row |]; index };
              Protocol.Ack
            with
            | Invalid_argument msg -> Protocol.failed Protocol.Bad_request "%s" msg
            | Failure msg -> Protocol.failed Protocol.Internal_error "%s" msg)))

(* Handle a raw encoded request, never letting an exception cross the
   transport boundary. Each request gets a fresh id shared by its log
   lines and its audit trace: the audit brackets the whole handler, so
   every index probe [Scheme.aggregate] fires lands in this request's
   trace. *)
let handle_encoded (s : t) (raw : string) : string =
  Obs.incr m_requests;
  Obs.add m_bytes_in (String.length raw);
  let req_id = Log.next_request_id () in
  Audit.begin_request req_id;
  let t0 = Unix.gettimeofday () in
  let kind = ref "undecodable" in
  let rtrace : Trace.rtrace option ref = ref None in
  let response =
    Obs.observe_ms h_request_ms (fun () ->
        try
          let tc, req = Protocol.decode_request_x raw in
          kind := request_kind req;
          (* Sampling: the peer can force a trace (its sampling flag);
             otherwise every [trace_sample]th request is traced, and a
             configured slow-query threshold traces everything — a slow
             request can only report its span tree if it was traced from
             the start. All of it needs metrics collection on. *)
          let sampled =
            !Obs.enabled
            && ((match tc with Some { Protocol.tc_sampled = true; _ } -> true | _ -> false)
               || (s.trace_sample > 0 && req_id mod s.trace_sample = 0)
               || s.slow_query_ms > 0.)
          in
          if sampled then begin
            let trace_id =
              match tc with Some { Protocol.tc_id = Some id; _ } -> Some id | _ -> None
            in
            let resp, rt = Trace.with_request_full ?trace_id (fun () -> handle s req) in
            rtrace := Some rt;
            resp
          end
          else handle s req
        with
        | Sagma_wire.Wire.Decode_error msg ->
          Protocol.failed Protocol.Bad_request "malformed request: %s" msg
        | Protocol.Version_mismatch { expected; got } ->
          Protocol.failed Protocol.Version_unsupported
            "protocol version %d not supported (this server speaks %d)" got expected
        | Invalid_argument msg -> Protocol.failed Protocol.Bad_request "%s" msg
        | Failure msg -> Protocol.failed Protocol.Internal_error "%s" msg
        | Not_found -> Protocol.failed Protocol.Internal_error "not found"
        | Division_by_zero -> Protocol.failed Protocol.Internal_error "division by zero")
  in
  let trace = Audit.end_request () in
  (match response with Protocol.Failed _ -> Obs.incr m_failed | _ -> ());
  (* Fill the byte counts into the trace's cost block (the completed
     ring holds the same record, so exports see them too), then attach
     the EXPLAIN trailer. [bytes_out] must describe the
     frame that actually leaves — trailer included — but the trailer
     itself embeds the cost block, and the varint width of [bytes_out]
     depends on its value; iterate to the (immediately reached)
     fixpoint instead of reporting the trailer-less first encoding.
     Re-encoding is confined to sampled requests. *)
  let encoded = Protocol.encode_response response in
  let encoded =
    match !rtrace with
    | Some rt ->
      let encode_with bytes_out =
        Trace.set_cost rt
          { rt.Trace.r_cost with Trace.bytes_in = String.length raw; bytes_out };
        Protocol.encode_response
          ~explain:
            { Protocol.x_id = rt.Trace.r_id;
              x_timings = Trace.phase_timings rt.Trace.r_root; x_cost = rt.Trace.r_cost;
              x_gc = Some rt.Trace.r_gc }
          response
      in
      let rec fix guess attempts =
        let e = encode_with guess in
        if String.length e = guess || attempts <= 0 then e
        else fix (String.length e) (attempts - 1)
      in
      fix (String.length encoded) 4
    | None -> encoded
  in
  Obs.add m_bytes_out (String.length encoded);
  let duration_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  if Log.enabled Log.Info then begin
    let base =
      [ Log.int "req" req_id; Log.str "kind" !kind; Log.float "ms" duration_ms;
        Log.float "duration_ms" duration_ms; Log.int "bytes_in" (String.length raw);
        Log.int "bytes_out" (String.length encoded) ]
    in
    match response with
    | Protocol.Failed { code; message } ->
      Log.warn "request"
        ~fields:
          (base
          @ [ Log.str "error" (Protocol.error_code_to_string code); Log.str "message" message ])
    | _ ->
      let audit_fields =
        match trace with
        | Some t ->
          [ Log.int "audit_probes" (List.length t.Audit.t_probes);
            Log.int "audit_rows_paired" t.Audit.t_rows_paired ]
        | None -> []
      in
      Log.info "request" ~fields:(base @ audit_fields)
  end;
  if s.slow_query_ms > 0. && duration_ms > s.slow_query_ms && Log.enabled Log.Warn then begin
    let trace_fields =
      match !rtrace with
      | Some rt ->
        [ Log.str "trace_id" rt.Trace.r_id; ("spans", Trace.to_json rt.Trace.r_root) ]
        @ List.map (fun (k, v) -> Log.int ("cost_" ^ k) v) (Trace.cost_fields rt.Trace.r_cost)
        @ List.map (fun (k, v) -> Log.int ("gc_" ^ k) v) (Trace.gc_fields rt.Trace.r_gc)
      | None -> []
    in
    Log.warn "slow_query"
      ~fields:
        ([ Log.int "req" req_id; Log.str "kind" !kind; Log.float "duration_ms" duration_ms;
           Log.float "threshold_ms" s.slow_query_ms ]
        @ trace_fields)
  end;
  encoded
