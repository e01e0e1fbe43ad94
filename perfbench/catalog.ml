(* Every metric the benchmark reports: name, unit and what it means.
   The end-to-end bounds here are the ones [compare] judges by;
   BENCHMARK.json repeats the subset that every workload reports, and
   [check_manifest] refuses to run when the two disagree. *)

type better = Lower | Higher

type e2e = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** share of the baseline median a metric may worsen by *)
  only : string list;  (** workloads reporting it; [] = all *)
}

let e2e =
  let m ?(only = []) name unit better bound = { name; unit; better; bound; only } in
  let fleet = [ "fleet-append-mix" ] in
  (* Timings get the largest bound allowed, 25%: on the 2-vCPU machine
     the benchmark was written on, the served latency of one seed moved
     by 10-30% between runs minutes apart, with the machine's own speed
     (a fixed CPU loop) drifting by as much. Byte counts vary only with
     the seed's bigint encodings. *)
  [ m "setup_s" "s" Lower 0.25;
    m "query_p50_ms" "ms" Lower 0.25;
    m "query_p90_ms" "ms" Lower 0.25;
    m "queries_per_s" "1/s" Higher 0.25;
    m ~only:fleet "append_p50_ms" "ms" Lower 0.25;
    m ~only:fleet "append_p90_ms" "ms" Lower 0.25;
    m ~only:fleet "appends_per_s" "1/s" Higher 0.25;
    m "failed_share" "ratio" Lower 0.;
    m "upload_bytes_per_row" "B" Lower 0.02;
    m "reply_bytes_per_query" "B" Lower 0.02;
    m "server_peak_rss_mb" "MB" Lower 0.25 ]

let find_e2e name = List.find_opt (fun m -> m.name = name) e2e

type layer = {
  lname : string;
  lunit : string;
  modl : string;  (** the module whose public functions are timed *)
  moves : string;  (** end-to-end metric @ workload it should move *)
}

let layers =
  let l lname lunit modl moves = { lname; lunit; modl; moves } in
  [ l "bigint.mont_mul_ns" "ns" "Montgomery.mont_mul"
      "query_p50_ms @ paper-key-1024; queries_per_s @ sum-2attr";
    l "bigint.mont_mul_minor_words" "words" "Montgomery.mont_mul"
      "query_p50_ms @ paper-key-1024; queries_per_s @ sum-2attr";
    l "pairing.fp2_mul_ns" "ns" "Fp2.mul"
      "query_p50_ms @ sum-2attr, paper-key-1024; none @ count-filtered";
    l "pairing.fp2_mul_minor_words" "words" "Fp2.mul"
      "query_p50_ms @ sum-2attr, paper-key-1024; none @ count-filtered";
    l "pairing.miller_us_per_pair" "us" "Pairing.pairing_prod (slope over 1/8/32 pairs)"
      "query_p50_ms @ sum-2attr, paper-key-1024; none @ count-filtered";
    l "pairing.final_exp_us" "us" "Pairing.pairing_prod (intercept over 1/8/32 pairs)"
      "query_p50_ms @ sum-2attr, paper-key-1024; none @ count-filtered";
    l "pairing.prod_minor_words_per_pair" "words" "Pairing.pairing_prod"
      "queries_per_s @ sum-2attr (2-connection scaling)";
    l "pairing.curve_mul_us" "us" "Curve.mul" "query_p50_ms @ count-filtered; setup_s @ all";
    l "pairing.pairings_per_query" "count" "pairing.pairings counter"
      "equals n*B^arity*c; none of the timings";
    l "pairing.precomp_hit_ratio" "ratio" "pairing.precomp_hits / pairing.pairings"
      "about 1 @ sum-2attr; below 1 @ fleet-append-mix";
    l "bgn.enc1_us" "us" "Bgn.enc1_int" "setup_s @ all; append_p50_ms @ fleet-append-mix";
    l "bgn.precompute1_us" "us" "Bgn.precompute1"
      "setup_s @ all; query_p50_ms @ fleet-append-mix";
    l "bgn.smul1_us" "us" "Bgn.smul1" "query_p50_ms @ count-filtered";
    l "bgn.add1_us" "us" "Bgn.add1" "query_p50_ms @ count-filtered";
    l "bgn.dlog_table_build_ms" "ms" "Bgn.make_dec2_table"
      "query_p50_ms @ fleet-append-mix, paper-key-1024";
    l "bgn.dlog_table_builds_per_query" "count" "bgn.dlog.table_builds counter"
      "query_p50_ms @ fleet-append-mix";
    l "bgn.dlog_solve_us" "us" "Bgn.dec2" "query_p50_ms @ paper-key-1024";
    l "sse.search_us_per_posting" "us" "Sse.search" "query_p50_ms @ count-filtered";
    l "sse.postings_per_query" "count" "sse.postings_scanned counter"
      "query_p50_ms @ count-filtered";
    l "scheme.token_ms" "ms" "Scheme.token" "query_p50_ms @ all";
    l "scheme.aggregate_ms" "ms" "Scheme.aggregate" "query_p50_ms @ all";
    l "scheme.aggregate_minor_words" "words" "Scheme.aggregate" "queries_per_s @ sum-2attr";
    l "scheme.decrypt_ms" "ms" "Scheme.decrypt" "query_p50_ms @ all";
    l "scheme.encrypt_row_ms" "ms" "Scheme.encrypt_table / rows" "setup_s @ all";
    l "scheme.append_payload_ms" "ms" "Scheme.append_payload"
      "append_p50_ms @ fleet-append-mix";
    l "scheme.merge_us" "us" "Scheme.merge_agg_results (two partials)"
      "query_p50_ms @ fleet-append-mix";
    l "scheme.aggregate_residual_pct" "%" "Scheme.aggregate minus sum of rung cost x count"
      "a large value means a layer is missing from the ladder";
    l "protocol.encode_request_us" "us" "Protocol.encode_request" "query_p50_ms @ count-filtered";
    l "protocol.decode_reply_us" "us" "Protocol.decode_response" "query_p50_ms @ count-filtered";
    l "protocol.upload_decode_ms_per_row" "ms" "Protocol.decode_request (Upload)"
      "setup_s @ paper-key-1024";
    l "server.handle_aggregate_ms" "ms" "Server.handle_encoded (Aggregate)"
      "query_p50_ms @ count-filtered";
    l "server.pipeline_overhead_ms" "ms" "Server.handle_encoded minus aggregate and codec"
      "query_p50_ms @ count-filtered";
    l "server.handle_append_ms" "ms" "Server.handle_encoded (Append)"
      "append_p50_ms @ fleet-append-mix";
    l "transport.call_overhead_ms" "ms" "Transport.call on an idle server minus in-process handle"
      "query_p50_ms @ count-filtered";
    l "router.aggregate_ms" "ms" "Router.handle (Aggregate)" "query_p90_ms @ fleet-append-mix";
    l "router.fanout_overhead_ms" "ms" "Router.handle minus the slowest direct shard call"
      "query_p90_ms @ fleet-append-mix";
    l "router.append_ms" "ms" "Router.handle (Append)" "append_p50_ms @ fleet-append-mix";
    l "load.wait_ms" "ms" "query_p50_ms minus the unloaded token, call and decrypt"
      "queries_per_s @ sum-2attr; query_p90_ms @ fleet-append-mix";
    l "trace.overhead_pct" "%" "traced vs untraced query_p50_ms within one run"
      "must stay small on every workload" ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* BENCHMARK.json must list, for each end-to-end metric, the same unit,
   direction and bound as this catalog, and only layers it knows. *)
let check_manifest (manifest : Json.t) : (unit, string) result =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun m ->
      let name = Option.value (Json.to_str (Json.member "name" m)) ~default:"?" in
      match find_e2e name with
      | None -> err "end_to_end metric %s is not in the catalog" name
      | Some c ->
        if c.only <> [] then err "end_to_end metric %s is not reported by every workload" name;
        if Json.to_str (Json.member "unit" m) <> Some c.unit then err "unit of %s differs" name;
        if Json.to_str (Json.member "better" m) <> Some (better_to_string c.better) then
          err "direction of %s differs" name;
        if Json.to_float (Json.member "bound" m) <> Some c.bound then err "bound of %s differs" name)
    (Json.to_list (Json.member "end_to_end" manifest));
  List.iter
    (fun m ->
      let name = Option.value (Json.to_str (Json.member "name" m)) ~default:"?" in
      match List.find_opt (fun l -> l.lname = name) layers with
      | None -> err "per_layer metric %s is not in the catalog" name
      | Some l -> if Json.to_str (Json.member "unit" m) <> Some l.lunit then err "unit of %s differs" name)
    (Json.to_list (Json.member "per_layer" manifest));
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))
