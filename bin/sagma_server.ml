(* sagma_server — the untrusted storage/compute half of the deployment.

   Holds uploaded encrypted tables in memory and answers Aggregate and
   Append requests using only public parameters; it never sees a key.

     dune exec bin/sagma_server.exe -- --port 7477 \
       [--max-conns M] [--request-timeout-ms T] \
       [--max-frame BYTES] \
       [--shard-of I/N | --coordinator HOST:PORT,...] \
       [--metrics] [--audit] [--trace-sample N] [--slow-query-ms T] \
       [--profile] \
       [--log-json FILE] [--log-level LEVEL]

   --shard-of   run as storage node I of an N-shard scatter-gather
                fleet ("I/N", zero-based): stores every uploaded row
                but only pairs the rows of slice row mod N = I, so a
                coordinator can ⊕-merge the partial aggregates.
   --coordinator  run as the fleet's coordinator instead of a storage
                node: fan every table request out to the comma-separated
                shard endpoints, homomorphically merge Aggregate
                partials (never decrypting), stamp appends with global
                row ids. Mutually exclusive with --shard-of.
   --shard-deadline-ms  coordinator-side per-shard call deadline
                (default 5000; 0 = none).
   --max-conns  shed connections beyond M open with a Failed Busy
                response (default 64).
   --request-timeout-ms  per-connection read/write deadline; a peer
                stalled past it loses only its own connection
                (default 30000; 0 disables).
   --max-frame  largest accepted frame in bytes (default 64 MiB).
   --metrics    collect operation counters (pairings, SSE postings
                scanned, request bytes/latency, ...), served over the
                Stats RPC (sagma stats) and dumped to stderr at
                shutdown.
   --audit      record per-request access-pattern traces (bucket ids
                touched, postings read, rows paired) and check each
                Aggregate's trace against the declared leakage; the
                trace and check summary rides along in Stats.
   --trace-sample  trace every Nth request: span tree + per-request
                cost block land on the completed-trace ring (served by
                the Traces RPC / sagma trace) and their replies carry
                an EXPLAIN trailer. Implies --metrics. 0 = off.
   --slow-query-ms  requests slower than T ms emit a slow_query log
                event with their span tree and cost block; implies
                tracing every request and --metrics. 0 = off.
   --profile    start the sampling resource profiler (Sagma_obs.Prof):
                span-attributed allocation sampling plus per-request GC
                deltas in EXPLAIN/trace exports. Implies --metrics.
   --log-json   append one JSON object per event (request handled,
                connection opened/closed) to FILE.
   --log-level  debug|info|warn|error (default info).
   --probe-interval-ms  coordinator only: background-probe each shard
                every T ms, maintaining the per-shard health state
                Health reports and fast-failing fan-out to known-down
                shards (default 1000; 0 = off).
   --watchdog-interval-ms  evaluate the SLO watchdog rules every T ms;
                firing/resolved transitions emit `alert` log events and
                active alerts ride in Health replies
                (default 1000; 0 disables the watchdog). The
                error-rate, p99-latency and queue-depth rules read
                metrics, which stay at zero unless --metrics or a
                tracing flag is on; without them only a coordinator's
                shard-down rule can fire.

   Each connection is served by a thread of the main domain that only
   reads frames; every request runs on the node's one domain pool,
   sized from Domain.recommended_domain_count () and spawned on
   demand, so an idle or stalled client holds a thread, never a core.
   A single server (neither --shard-of nor --coordinator) also lends
   that pool's idle workers to each query's pairing jobs; shards and
   coordinators aggregate inline, since a fleet query already runs one
   part per shard. There is no flag for this; the start log reports
   the size as pool_size.

   SIGINT/SIGTERM trigger a graceful shutdown: stop accepting (health
   turns "draining"), drain in-flight requests, flush logs and a final
   metrics snapshot. *)

module Log = Sagma_obs.Log
module Pool = Sagma_pool.Pool
module Watchdog = Sagma_obs.Watchdog

let () =
  let port = ref 7477 in
  let max_conns = ref 64 in
  let request_timeout_ms = ref 30000 in
  let max_frame = ref Sagma_protocol.Transport.default_server_max_frame in
  let shard_of = ref "" in
  let coordinator = ref "" in
  let shard_deadline_ms = ref 5000 in
  let metrics = ref false in
  let audit = ref false in
  let trace_sample = ref 0 in
  let slow_query_ms = ref 0.0 in
  let profile = ref false in
  let log_json = ref "" in
  let log_level = ref "info" in
  let probe_interval_ms = ref 1000 in
  let watchdog_interval_ms = ref 1000 in
  let args =
    [ ("--port", Arg.Set_int port, "Listen port (default 7477)");
      ("--max-conns", Arg.Set_int max_conns,
       "Open connection limit; excess get Failed Busy (default 64)");
      ("--request-timeout-ms", Arg.Set_int request_timeout_ms,
       "Per-connection read/write deadline in ms (default 30000; 0 = none)");
      ("--max-frame", Arg.Set_int max_frame,
       "Largest accepted frame in bytes (default 64 MiB)");
      ("--shard-of", Arg.Set_string shard_of,
       "Run as storage node I of an N-shard fleet (\"I/N\", zero-based)");
      ("--coordinator", Arg.Set_string coordinator,
       "Run as the query router over comma-separated shard endpoints (host:port,...)");
      ("--shard-deadline-ms", Arg.Set_int shard_deadline_ms,
       "Coordinator per-shard call deadline in ms (default 5000; 0 = none)");
      ("--metrics", Arg.Set metrics, "Collect metrics (served by Stats, dumped to stderr at exit)");
      ("--audit", Arg.Set audit, "Record per-request access-pattern traces (leakage auditor)");
      ("--trace-sample", Arg.Set_int trace_sample,
       "Trace every Nth request (span tree + EXPLAIN cost; implies --metrics; 0 = off)");
      ("--slow-query-ms", Arg.Set_float slow_query_ms,
       "Log a slow_query event for requests over T ms (implies tracing all; 0 = off)");
      ("--profile", Arg.Set profile,
       "Start the sampling resource profiler (allocation sites + GC deltas; implies --metrics)");
      ("--log-json", Arg.Set_string log_json, "Append JSON-lines structured logs to FILE");
      ("--log-level", Arg.Set_string log_level, "Log threshold: debug|info|warn|error (default info)");
      ("--probe-interval-ms", Arg.Set_int probe_interval_ms,
       "Coordinator shard-probe period in ms (default 1000; 0 = off)");
      ("--watchdog-interval-ms", Arg.Set_int watchdog_interval_ms,
       "SLO watchdog evaluation period in ms (default 1000; 0 = off; rules other than \
        shard-down need --metrics or tracing)") ]
  in
  let usage =
    "sagma_server [--port P] [--max-conns M] [--request-timeout-ms T] [--metrics] [--audit] \
     [--log-json FILE] [--log-level L]"
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* A bad flag value is reported like Arg.parse reports a bad flag:
     message, usage, exit 2. Every check runs before anything starts. *)
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("sagma_server: " ^ msg);
        Arg.usage args usage;
        exit 2)
      fmt
  in
  (match Log.level_of_string !log_level with
   | Some l -> Log.set_level l
   | None -> bad "bad --log-level %S" !log_level);
  if !shard_of <> "" && !coordinator <> "" then bad "--shard-of and --coordinator are mutually exclusive";
  let shard =
    if !shard_of = "" then None
    else
      match String.split_on_char '/' !shard_of |> List.map int_of_string_opt with
      | [ Some i; Some n ] when n >= 1 && 0 <= i && i < n -> Some (i, n)
      | [ Some _; Some _ ] -> bad "--shard-of %s out of range (want 0 <= I < N)" !shard_of
      | _ -> bad "bad --shard-of %S (want I/N)" !shard_of
  in
  if !log_json <> "" then Log.to_file !log_json;
  if !audit then Sagma_obs.Audit.set_enabled true;
  (* Tracing is built on the metrics scopes, so either tracing flag
     drags collection on even without an explicit --metrics (the
     shutdown dump stays tied to --metrics itself). *)
  if !metrics || !trace_sample > 0 || !slow_query_ms > 0.0 then
    Sagma_obs.Metrics.set_enabled true;
  (* The profiler's per-request attribution rides the request traces,
     so --profile drags metrics on too. *)
  if !profile then begin
    Sagma_obs.Metrics.set_enabled true;
    Sagma_obs.Prof.start ()
  end;
  (* One pool runs every request of this node and, on a single server,
     lends its idle workers to each query's aggregation jobs. *)
  let pool = Pool.create ~name:"requests" ~workers:(Domain.recommended_domain_count ()) () in
  let watchdog =
    if !watchdog_interval_ms > 0 then Some (Watchdog.create ()) else None
  in
  let router =
    if !coordinator = "" then None
    else
      let endpoints =
        String.split_on_char ',' !coordinator
        |> List.map String.trim
        |> List.filter (fun e -> e <> "")
      in
      Some
        (Sagma_protocol.Router.create ~deadline_ms:!shard_deadline_ms
           ~probe_interval_ms:!probe_interval_ms endpoints)
  in
  Option.iter Sagma_protocol.Router.start_probes router;
  let state =
    Sagma_protocol.Server.create
      ?agg_pool:(if !shard_of = "" && !coordinator = "" then Some pool else None)
      ?shard ?fleet:router ~trace_sample:!trace_sample
      ~slow_query_ms:!slow_query_ms ?watchdog ()
  in
  let role =
    match (router, shard) with
    | Some r, _ ->
      let t = Sagma_protocol.Router.topology r in
      Printf.sprintf " (coordinator over %d shards: %s)" t.Sagma_protocol.Protocol.tp_shard_count
        (String.concat "," t.Sagma_protocol.Protocol.tp_shards)
    | None, Some (i, n) -> Printf.sprintf " (shard %d/%d)" i n
    | None, None -> ""
  in
  let stop = Atomic.make false in
  let request_stop _ =
    Atomic.set stop true;
    (* Health flips to "draining" the moment the signal lands, so peers
       polling Health see the shutdown before the listener closes. *)
    Sagma_protocol.Server.set_draining state true
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  (* The watchdog poll loop is a thread of this domain: it only reads
     the metrics snapshot and the router's down-shard count. *)
  let watchdog_thread =
    match watchdog with
    | None -> None
    | Some wd ->
      Some
        (Thread.create (fun () ->
             let interval = float_of_int !watchdog_interval_ms /. 1000.0 in
             while not (Atomic.get stop) do
               (try
                  let shards_down =
                    match router with
                    | Some r -> Sagma_protocol.Router.down_count r
                    | None -> 0
                  in
                  Watchdog.poll wd ~snapshot:(Sagma_obs.Metrics.snapshot ()) ~shards_down
                with _ -> ());
               (* Sleep in short slices so shutdown stays prompt. *)
               let slept = ref 0.0 in
               while (not (Atomic.get stop)) && !slept < interval do
                 Unix.sleepf 0.05;
                 slept := !slept +. 0.05
               done
             done)
           ())
  in
  Printf.printf "sagma_server: listening on 127.0.0.1:%d (pool %d, max-conns %d)%s%s%s%s%s%s\n%!"
    !port (Pool.workers pool) !max_conns role
    (if !metrics then " (metrics on)" else "")
    (if !audit then " (audit on)" else "")
    (if !trace_sample > 0 then Printf.sprintf " (tracing 1/%d)" !trace_sample else "")
    (if !slow_query_ms > 0.0 then Printf.sprintf " (slow-query %gms)" !slow_query_ms else "")
    ((if !profile then " (profiling on)" else "")
     ^ if !log_json <> "" then Printf.sprintf " (logging to %s)" !log_json else "");
  Log.info "server.start"
    ~fields:
      [ Log.int "port" !port; Log.int "pool_size" (Pool.workers pool);
        Log.int "max_conns" !max_conns; Log.int "request_timeout_ms" !request_timeout_ms;
        Log.str "role"
          (match (router, shard) with
           | Some _, _ -> "coordinator"
           | None, Some (i, n) -> Printf.sprintf "shard %d/%d" i n
           | None, None -> "single");
        Log.bool "metrics" !metrics; Log.bool "audit" !audit;
        Log.int "trace_sample" !trace_sample; Log.float "slow_query_ms" !slow_query_ms;
        Log.bool "profile" !profile;
        Log.int "probe_interval_ms" (if router = None then 0 else !probe_interval_ms);
        Log.int "watchdog_interval_ms" !watchdog_interval_ms;
        Log.int "protocol_version" Sagma_protocol.Protocol.version ];
  Sagma_protocol.Transport.listen_and_serve ~pool ~max_conns:!max_conns ~request_timeout_ms:!request_timeout_ms ~max_frame:!max_frame
    ~stop:(fun () -> Atomic.get stop)
    ~port:!port (Sagma_protocol.Server.handle_encoded state);
  (* listen_and_serve only returns once drained: flush the final
     numbers, then the log stream. *)
  Option.iter Thread.join watchdog_thread;
  Option.iter Sagma_protocol.Router.shutdown router;
  Pool.shutdown pool;
  Log.info "server.stop" ~fields:[ Log.int "port" !port ];
  if !metrics then
    Format.eprintf "-- final metrics --@.%a@." Sagma_obs.Metrics.pp_snapshot
      (Sagma_obs.Metrics.snapshot ());
  if !profile then begin
    Sagma_obs.Prof.stop ();
    Format.eprintf "-- top allocation sites --@.";
    List.iter
      (fun s ->
        Format.eprintf "%-24s %12d words %8d samples@." s.Sagma_obs.Prof.site_span
          s.Sagma_obs.Prof.site_words s.Sagma_obs.Prof.site_samples)
      (Sagma_obs.Prof.top_sites ())
  end;
  Log.detach ();
  Printf.printf "sagma_server: stopped\n%!"
