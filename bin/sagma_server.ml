(* sagma_server — the untrusted storage/compute half of the deployment.

   Holds uploaded encrypted tables in memory and answers Aggregate and
   Append requests using only public parameters; it never sees a key.

     dune exec bin/sagma_server.exe -- --port 7477 \
       [--workers N] [--max-conns M] [--request-timeout-ms T] \
       [--max-frame BYTES] [--agg-domains D] \
       [--shard-of I/N | --coordinator HOST:PORT,...] \
       [--metrics] [--audit] [--trace-sample N] [--slow-query-ms T] \
       [--profile] \
       [--log-json FILE] [--log-level LEVEL]

   --workers    serve connections on an N-domain pool (default 4;
                0 = sequential, the pre-concurrency behavior).
   --shard-of   run as storage node I of an N-shard scatter-gather
                fleet ("I/N", zero-based): stores every uploaded row
                but only pairs the rows of slice row mod N = I, so a
                coordinator can ⊕-merge the partial aggregates.
   --coordinator  run as the fleet's coordinator instead of a storage
                node: fan every table request out to the comma-separated
                shard endpoints, homomorphically merge Aggregate
                partials (never decrypting), stamp appends with global
                row ids. Mutually exclusive with --shard-of and with
                --agg-domains above 1.
   --shard-deadline-ms  coordinator-side per-shard call deadline
                (default 5000; 0 = none).
   --max-conns  shed connections beyond M in flight with a Failed Busy
                response (default 64).
   --request-timeout-ms  per-connection read/write deadline; a peer
                stalled past it loses only its own connection
                (default 30000; 0 disables).
   --max-frame  largest accepted frame in bytes (default 64 MiB).
   --agg-domains  worker domains for row work inside each aggregation
                (default 1 = no intra-request parallelism); they form a
                second pool, separate from --workers.
   --metrics    collect operation counters (pairings, SSE postings
                scanned, request bytes/latency, ...) and dump them to
                stderr after every handled request; also served over the
                Stats RPC (sagma stats).
   --audit      record per-request access-pattern traces (bucket ids
                touched, postings read, rows paired) for the leakage
                auditor; the trace summary rides along in Stats.
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
                (default 1000; 0 disables the watchdog).
   --alert-rules  replace the default watchdog rules with FILE (one
                `name source cmp threshold` per line; see
                Sagma_obs.Watchdog.parse_rules).

   SIGINT/SIGTERM trigger a graceful shutdown: stop accepting (health
   turns "draining"), drain in-flight requests, flush logs and a final
   metrics snapshot. *)

module Log = Sagma_obs.Log
module Pool = Sagma_pool.Pool
module Watchdog = Sagma_obs.Watchdog

let () =
  let port = ref 7477 in
  let workers = ref 4 in
  let max_conns = ref 64 in
  let request_timeout_ms = ref 30000 in
  let max_frame = ref Sagma_protocol.Transport.default_server_max_frame in
  let agg_domains = ref 1 in
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
  let alert_rules = ref "" in
  let args =
    [ ("--port", Arg.Set_int port, "Listen port (default 7477)");
      ("--workers", Arg.Set_int workers,
       "Connection-serving domains (default 4; 0 = sequential)");
      ("--max-conns", Arg.Set_int max_conns,
       "In-flight connection limit; excess get Failed Busy (default 64)");
      ("--request-timeout-ms", Arg.Set_int request_timeout_ms,
       "Per-connection read/write deadline in ms (default 30000; 0 = none)");
      ("--max-frame", Arg.Set_int max_frame,
       "Largest accepted frame in bytes (default 64 MiB)");
      ("--agg-domains", Arg.Set_int agg_domains,
       "Worker domains per aggregation (default 1 = off)");
      ("--shard-of", Arg.Set_string shard_of,
       "Run as storage node I of an N-shard fleet (\"I/N\", zero-based)");
      ("--coordinator", Arg.Set_string coordinator,
       "Run as the query router over comma-separated shard endpoints (host:port,...)");
      ("--shard-deadline-ms", Arg.Set_int shard_deadline_ms,
       "Coordinator per-shard call deadline in ms (default 5000; 0 = none)");
      ("--metrics", Arg.Set metrics, "Collect metrics; dump counters to stderr per request");
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
       "SLO watchdog evaluation period in ms (default 1000; 0 = off)");
      ("--alert-rules", Arg.Set_string alert_rules,
       "Replace the default watchdog rules with FILE (name source cmp threshold per line)") ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sagma_server [--port P] [--workers N] [--max-conns M] [--request-timeout-ms T] [--metrics] [--audit] [--log-json FILE] [--log-level L]";
  (match Log.level_of_string !log_level with
   | Some l -> Log.set_level l
   | None -> raise (Arg.Bad (Printf.sprintf "bad --log-level %S" !log_level)));
  if !log_json <> "" then Log.to_file !log_json;
  if !audit then Sagma_obs.Audit.set_enabled true;
  (* Tracing is built on the metrics scopes, so either flag drags
     collection on even without an explicit --metrics (the per-request
     stderr dump stays tied to --metrics itself). *)
  if !trace_sample > 0 || !slow_query_ms > 0.0 then Sagma_obs.Metrics.set_enabled true;
  (* The profiler's per-request attribution rides the request traces,
     so --profile drags metrics on too. *)
  if !profile then begin
    Sagma_obs.Metrics.set_enabled true;
    Sagma_obs.Prof.start ()
  end;
  if !shard_of <> "" && !coordinator <> "" then
    raise (Arg.Bad "--shard-of and --coordinator are mutually exclusive");
  if !coordinator <> "" && !agg_domains > 1 then
    raise (Arg.Bad "--agg-domains does not apply to --coordinator (it aggregates nothing)");
  let shard =
    if !shard_of = "" then None
    else
      match String.index_opt !shard_of '/' with
      | Some k ->
        (try
           let i = int_of_string (String.sub !shard_of 0 k) in
           let n =
             int_of_string (String.sub !shard_of (k + 1) (String.length !shard_of - k - 1))
           in
           Some (i, n)
         with _ -> raise (Arg.Bad (Printf.sprintf "bad --shard-of %S (want I/N)" !shard_of)))
      | None -> raise (Arg.Bad (Printf.sprintf "bad --shard-of %S (want I/N)" !shard_of))
  in
  let agg_pool =
    if !agg_domains > 1 then Some (Pool.create ~name:"aggregation" ~workers:(!agg_domains - 1) ())
    else None
  in
  let rules =
    if !alert_rules = "" then None
    else begin
      let text =
        try
          let ic = open_in_bin !alert_rules in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic; s
        with Sys_error e -> raise (Arg.Bad (Printf.sprintf "--alert-rules: %s" e))
      in
      match Watchdog.parse_rules text with
      | Ok rs -> Some rs
      | Error e -> raise (Arg.Bad (Printf.sprintf "--alert-rules %s: %s" !alert_rules e))
    end
  in
  let watchdog =
    if !watchdog_interval_ms > 0 then Some (Watchdog.create ?rules ()) else None
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
    Sagma_protocol.Server.create ?agg_pool ?shard ?fleet:router ~trace_sample:!trace_sample
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
  (* The watchdog poll loop runs on its own domain: it only reads the
     metrics snapshot and the router's down-shard count, so it never
     contends with request handling. *)
  let watchdog_domain =
    match watchdog with
    | None -> None
    | Some wd ->
      Some
        (Domain.spawn (fun () ->
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
             done))
  in
  Printf.printf "sagma_server: listening on 127.0.0.1:%d (workers %d, max-conns %d)%s%s%s%s%s%s\n%!"
    !port !workers !max_conns role
    (if !metrics then " (metrics on)" else "")
    (if !audit then " (audit on)" else "")
    (if !trace_sample > 0 then Printf.sprintf " (tracing 1/%d)" !trace_sample else "")
    (if !slow_query_ms > 0.0 then Printf.sprintf " (slow-query %gms)" !slow_query_ms else "")
    ((if !profile then " (profiling on)" else "")
     ^ if !log_json <> "" then Printf.sprintf " (logging to %s)" !log_json else "");
  Log.info "server.start"
    ~fields:
      [ Log.int "port" !port; Log.int "workers" !workers; Log.int "max_conns" !max_conns;
        Log.int "request_timeout_ms" !request_timeout_ms; Log.int "agg_domains" !agg_domains;
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
  let after_request =
    if !metrics then begin
      Sagma_obs.Metrics.set_enabled true;
      Some
        (fun () ->
          Format.eprintf "-- metrics after request --@.%a@." Sagma_obs.Metrics.pp_snapshot
            (Sagma_obs.Metrics.snapshot ()))
    end
    else None
  in
  Sagma_protocol.Transport.listen_and_serve ?after_request ~workers:!workers
    ~max_conns:!max_conns ~request_timeout_ms:!request_timeout_ms ~max_frame:!max_frame
    ~stop:(fun () -> Atomic.get stop)
    ~port:!port (Sagma_protocol.Server.handle_encoded state);
  (* listen_and_serve only returns once drained: flush the final
     numbers, then the log stream. *)
  Option.iter Domain.join watchdog_domain;
  Option.iter Sagma_protocol.Router.shutdown router;
  Option.iter Pool.shutdown agg_pool;
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
