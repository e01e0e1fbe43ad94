(* sagma — command-line front end.

   One-shot demonstration tool: it loads a CSV, sets up a fresh SAGMA
   client, encrypts the table in memory and answers aggregation queries
   over the ciphertexts, reporting timings and the leakage profile.

     sagma query --csv data.csv --schema "salary:int,dept:str" \
                 --sum salary --group-by dept [--where dept=Sales] \
                 [--bucket-size 2] [--threshold 3]

     sagma inspect --csv data.csv --schema ... --column dept
         histogram, bucket exposure under PRF vs optimal partitioning,
         and the dummy-row budget to flatten the leakage

     sagma storage --l 4 --t 3 --k 2 --rows 1000 --domain 12
         the Table 10 / Figure 8 storage comparison at given parameters

     sagma demo
         the paper's worked example (Tables 1-7)                         *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Csv = Sagma_db.Csv
module Drbg = Sagma_crypto.Drbg
module P = Sagma_protocol.Protocol
open Sagma
open Cmdliner

let parse_schema (spec : string) : Table.schema =
  List.map
    (fun field ->
      match String.split_on_char ':' (String.trim field) with
      | [ name; "int" ] -> { Table.name; ty = Value.TInt }
      | [ name; "str" ] -> { Table.name; ty = Value.TStr }
      | _ -> invalid_arg (Printf.sprintf "bad schema field %S (want name:int|str)" field))
    (String.split_on_char ',' spec)

let load_table ~csv ~schema =
  let ic = open_in csv in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  let schema = parse_schema schema in
  (schema, Csv.parse ~schema contents)

let parse_where (t : Table.t) (clauses : string list) : (string * Value.t) list =
  List.map
    (fun clause ->
      match String.index_opt clause '=' with
      | None -> invalid_arg (Printf.sprintf "bad --where %S (want col=value)" clause)
      | Some i ->
        let col = String.sub clause 0 i in
        let raw = String.sub clause (i + 1) (String.length clause - i - 1) in
        (col, Value.parse (Table.column_ty t col) raw))
    clauses

(* --- query ----------------------------------------------------------------- *)

(* The body of an EXPLAIN block: phase timings, the nonzero cost
   counters and, when present, the request's nonzero GC deltas
   (heap_words is a size, not a delta, so it prints whenever nonzero). *)
let print_explain timings cost gc =
  List.iter (fun (phase, ms) -> Printf.printf "  %-24s %10.3f ms\n" phase ms) timings;
  List.iter
    (fun (k, v) -> if v > 0 then Printf.printf "  cost.%-19s %10d\n" k v)
    (Sagma_obs.Trace.cost_fields cost);
  Option.iter
    (fun gc ->
      List.iter
        (fun (k, v) -> if v <> 0 then Printf.printf "  gc.%-21s %10d\n" k v)
        (Sagma_obs.Trace.gc_fields gc))
    gc

let run_query csv schema sql sum count_flag avg group_by where bucket_size threshold seed metrics
    explain profile =
  if metrics || explain || profile then Sagma_obs.Metrics.set_enabled true;
  if profile then Sagma_obs.Prof.start ();
  let _, table = load_table ~csv ~schema in
  let q =
    match sql with
    | Some statement ->
      (* Full SQL front end, including BETWEEN range filters. *)
      Sagma_db.Sql.parse_query statement
    | None ->
      let aggregate =
        match (sum, count_flag, avg) with
        | Some c, false, None -> Query.Sum c
        | None, true, None -> Query.Count
        | None, false, Some c -> Query.Avg c
        | None, false, None -> Query.Count
        | _ -> invalid_arg "choose exactly one of --sum/--count/--avg"
      in
      if group_by = [] then invalid_arg "--group-by is required without --sql";
      Query.make ~where:(parse_where table where) ~group_by aggregate
  in
  let group_by = q.Query.group_by in
  let where = q.Query.where in
  let value_columns =
    match Query.value_column q.Query.aggregate with
    | Some c -> [ c ]
    | None -> begin
      (* COUNT-only query: pick any int column as a placeholder value. *)
      match
        List.find_opt
          (fun c ->
            Table.column_ty table c.Table.name = Value.TInt
            && not (List.mem c.Table.name group_by))
          (Table.schema table)
      with
      | Some c -> [ c.Table.name ]
      | None -> invalid_arg "no int column available as value column"
    end
  in
  let config =
    Config.make ~bucket_size ~max_group_attrs:(min threshold (List.length group_by))
      ~filter_columns:(List.map fst where)
      ~range_filter_columns:(List.map (fun (c, _, _) -> c) q.Query.ranges)
      ~value_columns ~group_columns:group_by ()
  in
  let domains = List.map (fun col -> (col, Table.distinct table col)) group_by in
  let drbg = Drbg.create seed in
  let t0 = Unix.gettimeofday () in
  let client = Scheme.setup config ~domains drbg in
  let t1 = Unix.gettimeofday () in
  let enc = Scheme.encrypt_table client table in
  let t2 = Unix.gettimeofday () in
  (* The query pipeline proper, each phase under its span. With
     --explain the whole thing runs inside a Trace request context, so
     the spans become the request's phase timings and the operation
     counters are captured into its cost block. *)
  let run_phases () =
    let tok = Sagma_obs.Trace.with_span "token" (fun () -> Scheme.token client q) in
    let agg = Sagma_obs.Trace.with_span "aggregate" (fun () -> Scheme.aggregate enc tok) in
    let t3 = Unix.gettimeofday () in
    let results =
      Sagma_obs.Trace.with_span "decrypt" (fun () ->
          Scheme.decrypt client tok agg ~total_rows:(Array.length enc.Scheme.rows))
    in
    (tok, t3, results)
  in
  let (tok, t3, results), request_trace =
    if explain then
      let v, rt = Sagma_obs.Trace.with_request_full run_phases in
      (v, Some rt)
    else (run_phases (), None)
  in
  let t4 = Unix.gettimeofday () in
  Printf.printf "%s\n" (Query.to_sql q);
  Printf.printf "%-14s | %s\n" (Query.aggregate_name q.Query.aggregate) (String.concat " | " group_by);
  List.iter
    (fun r ->
      Printf.printf "%-14g | %s\n" (Scheme.aggregate_value q r)
        (String.concat " | " (List.map Value.to_string r.Scheme.group)))
    results;
  Printf.printf
    "\nrows: %d   setup: %.2fs   encrypt: %.2fs   server aggregate: %.2fs   decrypt: %.2fs\n"
    (Table.row_count table) (t1 -. t0) (t2 -. t1) (t3 -. t2) (t4 -. t3);
  let leak = Leakage.profile enc [ tok ] in
  Printf.printf "leakage: %d SSE index entries; query touched %d bucket/filter tokens\n"
    leak.Leakage.index_size
    (List.length (List.concat_map (fun ql -> ql.Leakage.observations) leak.Leakage.queries));
  if metrics then begin
    print_endline "\n-- operation counters --";
    Format.printf "%a@." Sagma_obs.Metrics.pp_snapshot (Sagma_obs.Metrics.snapshot ());
    print_endline "-- query trace --";
    List.iter (Format.printf "%a@." Sagma_obs.Trace.pp) (Sagma_obs.Trace.roots ())
  end;
  match request_trace with
  | None -> ()
  | Some rt ->
    let module Trace = Sagma_obs.Trace in
    Printf.printf "\n-- explain (trace %s) --\n" rt.Trace.r_id;
    print_explain (Trace.phase_timings rt.Trace.r_root) rt.Trace.r_cost (Some rt.Trace.r_gc);
    (match rt.Trace.r_alloc with
     | [] -> ()
     | sites ->
       print_endline "  -- allocation sites (words) --";
       List.iteri
         (fun i (span, words) -> if i < 10 then Printf.printf "  alloc.%-19s %10d\n" span words)
         sites)

(* --- inspect --------------------------------------------------------------- *)

let run_inspect csv schema column bucket_size =
  let _, table = load_table ~csv ~schema in
  let hist = Bucketing.histogram table column in
  Printf.printf "histogram of %s (%d distinct values, %d rows):\n" column (List.length hist)
    (Table.row_count table);
  List.iter (fun (v, c) -> Printf.printf "  %-20s %d\n" (Value.to_string v) c) hist;
  let domain = List.map fst hist in
  let prf = Mapping.make Mapping.Prf_random "inspect" domain ~bucket_size in
  let opt = Bucketing.optimal_mapping hist ~bucket_size in
  Printf.printf "\nexposure (B=%d): prf=%.4f optimal=%.4f\n" bucket_size
    (Bucketing.exposure prf hist) (Bucketing.exposure opt hist);
  let plan = Bucketing.dummy_plan_for_column opt hist in
  Printf.printf "dummy rows to flatten optimal buckets: %d\n"
    (List.fold_left (fun acc (_, k) -> acc + k) 0 plan)

(* --- storage --------------------------------------------------------------- *)

let run_storage l t k rows n b d =
  Printf.printf "server storage in ciphertexts (l=%d t=%d k=%d r=%d n=%d B=%d |D|=%d):\n" l t k
    rows n b d;
  Printf.printf "  pre-computed: %d\n" (Storage.precomputed_server ~l ~t ~k ~n ~d);
  Printf.printf "  seabed:       %d\n" (Storage.seabed_server ~l ~t ~k ~r:rows ~b);
  Printf.printf "  sagma:        %d  (m(l,t) = %d monomials/row)\n"
    (Storage.sagma_server ~l ~t ~k ~r:rows ~b)
    (Storage.monomial_count ~l ~t ~b);
  Printf.printf "client operations per query: pre-computed=%d seabed(rho=50)=%d sagma=%d\n"
    Storage.precomputed_client
    (Storage.seabed_client ~rho:50 ~t ~d)
    (Storage.sagma_client ~t ~d)

(* --- demo ------------------------------------------------------------------- *)

let run_demo () =
  let str s = Value.Str s and vi i = Value.Int i in
  let schema : Table.schema =
    [ { Table.name = "ID"; ty = Value.TInt }; { Table.name = "Salary"; ty = Value.TInt };
      { Table.name = "Gender"; ty = Value.TStr }; { Table.name = "Name"; ty = Value.TStr };
      { Table.name = "Department"; ty = Value.TStr } ]
  in
  let table =
    Table.of_rows schema
      [ [| vi 1; vi 1000; str "male"; str "Henry"; str "Sales" |];
        [| vi 2; vi 5000; str "female"; str "Jessica"; str "Sales" |];
        [| vi 3; vi 1500; str "female"; str "Alice"; str "Finance" |];
        [| vi 4; vi 3000; str "male"; str "Bob"; str "Sales" |];
        [| vi 5; vi 2000; str "male"; str "Paul"; str "Facility" |] ]
  in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~filter_columns:[ "Department" ]
      ~value_columns:[ "Salary" ] ~group_columns:[ "Gender"; "Department" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:
        [ ("Gender", [ str "male"; str "female" ]);
          ("Department", [ str "Sales"; str "Finance"; str "Facility" ]) ]
      (Drbg.create "cli-demo")
  in
  let enc = Scheme.encrypt_table client table in
  List.iter
    (fun q ->
      Printf.printf "%s\n" (Query.to_sql q);
      List.iter
        (fun r ->
          Printf.printf "  %-10g %s\n" (Scheme.aggregate_value q r)
            (String.concat " | " (List.map Value.to_string r.Scheme.group)))
        (Scheme.query client enc q);
      print_newline ())
    [ Query.make ~group_by:[ "Gender"; "Department" ] (Query.Sum "Salary");
      Query.make ~where:[ ("Department", str "Sales") ] ~group_by:[ "Gender"; "Department" ]
        (Query.Sum "Salary");
      Query.make ~group_by:[ "Department" ] Query.Count ]

(* --- remote mode (against bin/sagma_server.ml) ------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* One request to the server on [port] over its own connection, closed
   even when the call raises. A [Failed] reply becomes the command's
   error; any other reply (and its EXPLAIN trailer) is the caller's to
   match. *)
let remote_call ?trace port req =
  let fd = Sagma_protocol.Transport.connect ~port () in
  match
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Sagma_protocol.Transport.call_x ?trace fd req)
  with
  | P.Failed { code; message }, _ ->
    failwith (Printf.sprintf "%s: %s" (P.error_code_to_string code) message)
  | reply -> reply

(* Encrypt a CSV locally, persist the secret client state to [key_file]
   (private!), and upload the ciphertexts to the server. *)
let run_remote_upload csv schema group_by value_cols filter_cols bucket_size threshold seed port
    name key_file =
  let _, table = load_table ~csv ~schema in
  let config =
    Config.make ~bucket_size ~max_group_attrs:threshold ~filter_columns:filter_cols
      ~value_columns:value_cols ~group_columns:group_by ()
  in
  let domains = List.map (fun col -> (col, Table.distinct table col)) group_by in
  let client = Scheme.setup config ~domains (Drbg.create seed) in
  let enc = Scheme.encrypt_table client table in
  write_file key_file (Serialize.client_to_string client);
  match remote_call port (P.Upload { name; table = enc }) with
  | P.Ack, _ ->
    Printf.printf "uploaded %d encrypted rows as %S; client key saved to %s\n"
      (Table.row_count table) name key_file
  | _ -> failwith "unexpected response"

(* Query a previously uploaded table: only the token goes up, only
   ciphertext aggregates come back. *)
let run_remote_query sum count_flag avg group_by where_raw port name key_file seed explain =
  let client = Serialize.client_of_string ~drbg:(Drbg.create (seed ^ "-session")) (read_file key_file) in
  let aggregate =
    match (sum, count_flag, avg) with
    | Some c, false, None -> Query.Sum c
    | None, _, None -> Query.Count
    | None, false, Some c -> Query.Avg c
    | _ -> invalid_arg "choose exactly one of --sum/--count/--avg"
  in
  let where =
    List.map
      (fun clause ->
        match String.index_opt clause '=' with
        | None -> invalid_arg (Printf.sprintf "bad --where %S" clause)
        | Some i ->
          let col = String.sub clause 0 i in
          let raw = String.sub clause (i + 1) (String.length clause - i - 1) in
          (* Filter values are parsed as strings unless they look numeric. *)
          (col, (match int_of_string_opt raw with Some v -> Value.Int v | None -> Value.Str raw)))
      where_raw
  in
  let q = Query.make ~where ~group_by aggregate in
  let tok = Scheme.token client q in
  let total_rows =
    match remote_call port P.List_tables with
    | P.Tables ts, _ ->
      (match List.assoc_opt name ts with
       | Some rows -> rows
       | None -> failwith (Printf.sprintf "no such remote table %S" name))
    | _ -> failwith "unexpected response"
  in
  (* --explain sets the sampling flag on the request, forcing the
     server to trace it and return an EXPLAIN trailer. *)
  let trace = if explain then Some { P.tc_id = None; tc_sampled = true } else None in
  match remote_call ?trace port (P.Aggregate { name; token = tok }) with
  | P.Aggregates agg, wire_explain ->
    let results = Scheme.decrypt client tok agg ~total_rows in
    Printf.printf "%s\n" (Query.to_sql q);
    List.iter
      (fun r ->
        Printf.printf "%-14g | %s\n" (Scheme.aggregate_value q r)
          (String.concat " | " (List.map Value.to_string r.Scheme.group)))
      results;
    (* The server may attach a trailer unasked (e.g. --trace-sample 1
       samples every request); only print it when the user wanted it. *)
    (match wire_explain with
     | _ when not explain -> ()
     | None -> print_endline "\n(no EXPLAIN trailer: server not collecting metrics?)"
     | Some { P.x_id; x_timings; x_cost; x_gc } ->
       Printf.printf "\n-- explain (server trace %s) --\n" x_id;
       print_explain x_timings x_cost x_gc)
  | _ -> failwith "unexpected response"

(* Fetch the server's metrics snapshot + audit summary over the Stats
   RPC. Rendered human-readable by default; --prometheus emits the
   text-format exposition (what a scrape endpoint would serve), --json
   the structured snapshot. *)
(* The gc section rendered as the conventional Prometheus
   process-level families. *)
let gc_raw_samples (g : P.gc_stats) : (string * float) list =
  [ ("ocaml_gc_minor_words_total", g.P.gs_minor_words);
    ("ocaml_gc_promoted_words_total", g.P.gs_promoted_words);
    ("ocaml_gc_major_words_total", g.P.gs_major_words);
    ("ocaml_gc_minor_collections_total", float_of_int g.P.gs_minor_collections);
    ("ocaml_gc_major_collections_total", float_of_int g.P.gs_major_collections);
    ("ocaml_gc_compactions_total", float_of_int g.P.gs_compactions);
    ("ocaml_gc_heap_words", float_of_int g.P.gs_heap_words);
    ("ocaml_gc_top_heap_words", float_of_int g.P.gs_top_heap_words) ]

(* Split a federated series name into its base and the shard id its
   {shard="i"} label carries (None for unlabeled fleet aggregates). *)
let split_shard name =
  match String.index_opt name '{' with
  | None -> (name, None)
  | Some i ->
    let base = String.sub name 0 i in
    let rest = String.sub name i (String.length name - i) in
    let pfx = "{shard=\"" in
    let shard =
      if String.length rest > String.length pfx && String.sub rest 0 (String.length pfx) = pfx
      then
        let j = String.length pfx in
        match String.index_from_opt rest j '"' with
        | Some k -> int_of_string_opt (String.sub rest j (k - j))
        | None -> None
      else None
    in
    (base, shard)

(* The per-shard column view of a coordinator's federated snapshot:
   every series that arrived labeled {shard="i"} becomes a column next
   to the unlabeled fleet aggregate. *)
let render_cluster (r : P.stats_report) =
  let module M = Sagma_obs.Metrics in
  let tbl = Hashtbl.create 64 in
  let shard_ids = ref [] in
  let note (base, sh) v =
    match sh with
    | None -> ()
    | Some i ->
      if not (List.mem i !shard_ids) then shard_ids := i :: !shard_ids;
      Hashtbl.replace tbl (base, i) v
  in
  List.iter (fun (n, v) -> note (split_shard n) v) r.P.sr_snapshot.M.counters;
  List.iter (fun (n, v) -> note (split_shard n) v) r.P.sr_snapshot.M.gauges;
  let shards = List.sort compare !shard_ids in
  if shards = [] then
    print_endline
      "no per-shard series in this snapshot (expected a coordinator running with --metrics)"
  else begin
    (match r.P.sr_topology with
     | Some t when t.P.tp_role = "coordinator" ->
       Printf.printf "coordinator over %d shards (%s)\n\n" t.P.tp_shard_count
         (String.concat ", " t.P.tp_shards)
     | _ -> ());
    let bases =
      List.sort_uniq compare (Hashtbl.fold (fun (b, _) _ acc -> b :: acc) tbl [])
    in
    Printf.printf "%-34s %12s" "series" "fleet";
    List.iter (fun i -> Printf.printf " %12s" (Printf.sprintf "shard %d" i)) shards;
    print_newline ();
    List.iter
      (fun base ->
        let fleet =
          match List.assoc_opt base r.P.sr_snapshot.M.counters with
          | Some v -> string_of_int v
          | None -> (
            match List.assoc_opt base r.P.sr_snapshot.M.gauges with
            | Some v -> string_of_int v
            | None -> "-")
        in
        Printf.printf "%-34s %12s" base fleet;
        List.iter
          (fun i ->
            match Hashtbl.find_opt tbl (base, i) with
            | Some v -> Printf.printf " %12d" v
            | None -> Printf.printf " %12s" "-")
          shards;
        print_newline ())
      bases;
    (* Latency: the per-shard histograms next to the fleet-merged one. *)
    let hists = Hashtbl.create 16 in
    List.iter
      (fun (n, h) ->
        match split_shard n with
        | base, Some i -> Hashtbl.replace hists (base, i) h.M.h_p95
        | _ -> ())
      r.P.sr_snapshot.M.histograms;
    let hbases =
      List.sort_uniq compare (Hashtbl.fold (fun (b, _) _ acc -> b :: acc) hists [])
    in
    if hbases <> [] then begin
      Printf.printf "\n%-34s %12s" "p95 (ms)" "fleet";
      List.iter (fun i -> Printf.printf " %12s" (Printf.sprintf "shard %d" i)) shards;
      print_newline ();
      List.iter
        (fun base ->
          let fleet =
            match List.assoc_opt base r.P.sr_snapshot.M.histograms with
            | Some h -> Printf.sprintf "%.1f" h.M.h_p95
            | None -> "-"
          in
          Printf.printf "%-34s %12s" base fleet;
          List.iter
            (fun i ->
              match Hashtbl.find_opt hists (base, i) with
              | Some p -> Printf.printf " %12.1f" p
              | None -> Printf.printf " %12s" "-")
            shards;
          print_newline ())
        hbases
    end
  end

let fetch_stats port : P.stats_report =
  match remote_call port P.Stats with
  | P.Stats_report r, _ -> r
  | _ -> failwith "unexpected response"

let run_stats port prometheus json cluster =
  let ({ P.sr_snapshot; sr_audit; sr_uptime_s; sr_start_time; sr_gc; sr_topology } as report) =
    fetch_stats port
  in
  if prometheus then
    (* The exposition carries the uptime and the heap/GC state
       rather than dropping them on the floor. *)
    print_string
      (Sagma_obs.Export.prometheus ~uptime_s:sr_uptime_s
         ~raw:(match sr_gc with Some g -> gc_raw_samples g | None -> [])
         sr_snapshot)
  else if json then
    (* One object carrying the whole report: snapshot, uptime, the gc
       block, the audit summary and the topology — not just the bare
       snapshot. *)
    print_endline (Sagma_obs.Json.to_string (P.stats_report_to_json report))
  else if cluster then render_cluster report
  else begin
    (if sr_snapshot.Sagma_obs.Metrics.counters = []
        && sr_snapshot.Sagma_obs.Metrics.histograms = []
     then print_endline "no metrics recorded (is the server running with --metrics?)"
     else Format.printf "%a@." Sagma_obs.Metrics.pp_snapshot sr_snapshot);
    (let t = Unix.localtime sr_start_time in
     Printf.printf "uptime: %.1fs (started %04d-%02d-%02d %02d:%02d:%02d)\n" sr_uptime_s
       (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour
       t.Unix.tm_min t.Unix.tm_sec);
    (match sr_gc with
     | Some g ->
       let mib words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1048576. in
       Printf.printf "heap: %.1f MiB (peak %.1f MiB) minor_gcs=%d major_gcs=%d\n"
         (mib g.P.gs_heap_words) (mib g.P.gs_top_heap_words) g.P.gs_minor_collections
         g.P.gs_major_collections
     | None -> ());
    (match sr_topology with
     | Some t ->
       (match t.P.tp_role with
        | "shard" ->
          Printf.printf "topology: shard %d/%d\n" t.P.tp_shard_index t.P.tp_shard_count
        | "coordinator" ->
          Printf.printf "topology: coordinator over %d shards (%s)\n" t.P.tp_shard_count
            (String.concat ", " t.P.tp_shards)
        | role -> Printf.printf "topology: %s\n" role)
     | None -> ());
    Printf.printf "audit: requests=%d probes=%d checks=%d failures=%d\n"
      sr_audit.Sagma_obs.Audit.s_requests sr_audit.Sagma_obs.Audit.s_probes
      sr_audit.Sagma_obs.Audit.s_checks_run sr_audit.Sagma_obs.Audit.s_check_failures
  end

(* --- top: live resource dashboard -------------------------------------------

   Polls the Stats RPC at an interval and renders the operational vitals
   as rates: req/s and pairings/s from counter deltas between polls, p95
   latency from the proto.request_ms histogram, pool queue depth and
   in-flight connections from gauges, shed connections from
   transport.rejected, heap size from the gc section. --once prints a
   single frame (rates averaged over the server's uptime) and exits —
   the scripts/CI mode. *)

let run_top port interval once =
  let module M = Sagma_obs.Metrics in
  let counter (r : P.stats_report) name =
    Option.value ~default:0 (List.assoc_opt name r.P.sr_snapshot.M.counters)
  in
  let gauge (r : P.stats_report) name = List.assoc_opt name r.P.sr_snapshot.M.gauges in
  let render ~clear ~(prev : (P.stats_report * float) option) (r : P.stats_report) =
    (* Rates: deltas between polls once we have two frames, otherwise
       (and in --once mode) averages over the server's whole uptime. *)
    let rate name =
      match prev with
      | Some (p, dt) when dt > 0. -> float_of_int (counter r name - counter p name) /. dt
      | _ -> if r.P.sr_uptime_s > 0. then float_of_int (counter r name) /. r.P.sr_uptime_s else 0.
    in
    let p95 =
      match List.assoc_opt "proto.request_ms" r.P.sr_snapshot.M.histograms with
      | Some h -> Printf.sprintf "%.1f ms" h.M.h_p95
      | None -> "-"
    in
    let gauge_str name =
      match gauge r name with Some v -> string_of_int v | None -> "-"
    in
    let heap =
      match r.P.sr_gc with
      | Some g ->
        Printf.sprintf "%.1f MiB"
          (float_of_int g.P.gs_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.)
      | None -> "-"
    in
    if clear then print_string "\027[2J\027[H";
    Printf.printf "sagma top — 127.0.0.1:%d — uptime %.1fs%s\n\n" port r.P.sr_uptime_s
      (match prev with None -> " (rates averaged over uptime)" | Some _ -> "");
    Printf.printf "  %-22s %10.1f\n" "req/s" (rate "proto.requests");
    Printf.printf "  %-22s %10s\n" "p95 latency" p95;
    Printf.printf "  %-22s %10.1f\n" "pairings/s" (rate "pairing.pairings");
    Printf.printf "  %-22s %10s\n" "pool queue depth" (gauge_str "pool.queue_depth");
    Printf.printf "  %-22s %10s\n" "inflight connections" (gauge_str "transport.inflight");
    Printf.printf "  %-22s %10d\n" "shed connections" (counter r "transport.rejected");
    Printf.printf "  %-22s %10d\n" "requests total" (counter r "proto.requests");
    Printf.printf "  %-22s %10d\n" "requests failed" (counter r "proto.requests_failed");
    Printf.printf "  %-22s %10s\n" "heap" heap;
    (* Against a coordinator, the federated snapshot carries each
       shard's series labeled {shard="i"}: render them as columns. *)
    let shard_ids =
      List.filter_map
        (fun (n, _) -> match split_shard n with _, Some i -> Some i | _ -> None)
        r.P.sr_snapshot.M.counters
      |> List.sort_uniq compare
    in
    if shard_ids <> [] then begin
      Printf.printf "\n  %-8s %10s %10s %10s %12s\n" "shard" "req/s" "requests" "failed"
        "p95 (ms)";
      List.iter
        (fun i ->
          let l name = Sagma_obs.Export.labeled name [ ("shard", string_of_int i) ] in
          let p95 =
            match List.assoc_opt (l "proto.request_ms") r.P.sr_snapshot.M.histograms with
            | Some h -> Printf.sprintf "%.1f" h.M.h_p95
            | None -> "-"
          in
          Printf.printf "  %-8d %10.1f %10d %10d %12s\n" i
            (rate (l "proto.requests"))
            (counter r (l "proto.requests"))
            (counter r (l "proto.requests_failed"))
            p95)
        shard_ids
    end;
    print_string "";
    flush stdout
  in
  if once then render ~clear:false ~prev:None (fetch_stats port)
  else begin
    let prev = ref None in
    while true do
      let t0 = Unix.gettimeofday () in
      let r = fetch_stats port in
      render ~clear:true ~prev:!prev r;
      Unix.sleepf interval;
      prev := Some (r, Unix.gettimeofday () -. t0)
    done
  end

(* Pull the server's completed-trace ring (Traces RPC) and export it
   as Chrome trace-event JSON — loadable in chrome://tracing or
   Perfetto. "-" writes to stdout. *)
let run_trace port out =
  match remote_call port P.Traces with
  | P.Trace_dump traces, _ ->
    let json = Sagma_obs.Json.to_string (Sagma_obs.Trace.chrome_json traces) in
    if out = "-" then print_endline json
    else begin
      write_file out json;
      Printf.printf "wrote %d trace(s) to %s (chrome://tracing format)\n"
        (List.length traces) out
    end
  | _ -> failwith "unexpected response"

(* --- health: fleet health & alerting --------------------------------------------

   One Health RPC: status word, uptime, currently-firing watchdog
   alerts, and — against a coordinator — the per-shard reachability
   block the background prober maintains. The command exits non-zero
   while the target is anything but a clean "ok", so scripts and CI can
   gate on it. --watch re-polls and redraws like top. *)

let fetch_health port : P.health_report =
  match remote_call port P.Health with
  | P.Health_report r, _ -> r
  | _ -> failwith "unexpected response"

let health_ok (r : P.health_report) =
  r.P.hr_status = "ok" && r.P.hr_alerts = []

let render_health port (r : P.health_report) =
  let module W = Sagma_obs.Watchdog in
  Printf.printf "127.0.0.1:%d: %s (uptime %.1fs)\n" port r.P.hr_status r.P.hr_uptime_s;
  (match r.P.hr_alerts with
   | [] -> ()
   | alerts ->
     print_endline "alerts:";
     List.iter
       (fun a ->
         Printf.printf "  %-24s firing %.1fs  value %g vs threshold %g  %s\n" a.W.a_rule
           (max 0. (Unix.gettimeofday () -. a.W.a_since))
           a.W.a_value a.W.a_threshold a.W.a_message)
       alerts);
  match r.P.hr_shards with
  | [] -> ()
  | shards ->
    print_endline "shards:";
    List.iter
      (fun s ->
        Printf.printf "  %d %-22s %-4s rtt %6.1fms  failures %d%s\n" s.P.shc_index
          s.P.shc_endpoint
          (if s.P.shc_reachable then "up" else "DOWN")
          s.P.shc_rtt_ms s.P.shc_failures
          (if s.P.shc_last_error = "" then ""
           else Printf.sprintf "  last error: %s" s.P.shc_last_error))
      shards

let run_health port json watch interval =
  if watch then
    while true do
      let r = fetch_health port in
      print_string "\027[2J\027[H";
      render_health port r;
      flush stdout;
      Unix.sleepf interval
    done
  else begin
    let r = fetch_health port in
    if json then
      print_endline (Sagma_obs.Json.to_string (P.health_report_to_json r))
    else render_health port r;
    if not (health_ok r) then exit 1
  end

(* --- cmdliner wiring ----------------------------------------------------------- *)

let csv_arg = Arg.(required & opt (some file) None & info [ "csv" ] ~doc:"Input CSV file.")
let schema_arg =
  Arg.(required & opt (some string) None & info [ "schema" ] ~doc:"Schema, e.g. salary:int,dept:str.")

let query_cmd =
  let sql =
    Arg.(value & opt (some string) None
         & info [ "sql" ] ~doc:"Full SQL statement (supports WHERE ... BETWEEN).")
  in
  let sum = Arg.(value & opt (some string) None & info [ "sum" ] ~doc:"SUM this column.") in
  let count = Arg.(value & flag & info [ "count" ] ~doc:"COUNT rows per group.") in
  let avg = Arg.(value & opt (some string) None & info [ "avg" ] ~doc:"AVG this column.") in
  let group_by =
    Arg.(value & opt (list string) [] & info [ "group-by" ] ~doc:"Grouping columns.")
  in
  let where =
    Arg.(value & opt_all string [] & info [ "where" ] ~doc:"Equality filter col=value (repeatable).")
  in
  let bucket = Arg.(value & opt int 2 & info [ "bucket-size" ] ~doc:"Bucket size B.") in
  let threshold = Arg.(value & opt int 3 & info [ "threshold" ] ~doc:"Max grouping attributes t.") in
  let seed = Arg.(value & opt string "sagma-cli" & info [ "seed" ] ~doc:"DRBG seed.") in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect and print operation counters and a phase trace for the query.")
  in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Run the query under a trace context and print per-phase timings plus the \
                   EXPLAIN cost block (pairings, Miller-loop steps, dlog giant steps, ...) \
                   and the per-request gc block (minor/major words, collections, heap growth).")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:"Start the sampling resource profiler for the query: with --explain, the \
                   EXPLAIN output gains a span-attributed allocation-site table.")
  in
  Cmd.v (Cmd.info "query" ~doc:"Encrypt a CSV and answer an aggregation query over ciphertexts.")
    Term.(
      const run_query $ csv_arg $ schema_arg $ sql $ sum $ count $ avg $ group_by $ where
      $ bucket $ threshold $ seed $ metrics $ explain $ profile)

let inspect_cmd =
  let column = Arg.(required & opt (some string) None & info [ "column" ] ~doc:"Column to inspect.") in
  let bucket = Arg.(value & opt int 2 & info [ "bucket-size" ] ~doc:"Bucket size B.") in
  Cmd.v (Cmd.info "inspect" ~doc:"Histogram, exposure and dummy-row budget of a column.")
    Term.(const run_inspect $ csv_arg $ schema_arg $ column $ bucket)

let storage_cmd =
  let l = Arg.(value & opt int 4 & info [ "l" ] ~doc:"Group columns.") in
  let t = Arg.(value & opt int 3 & info [ "t" ] ~doc:"Threshold.") in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Value columns.") in
  let rows = Arg.(value & opt int 1000 & info [ "rows" ] ~doc:"Rows.") in
  let n = Arg.(value & opt int 2 & info [ "filters" ] ~doc:"Filtering clauses.") in
  let b = Arg.(value & opt int 2 & info [ "bucket-size" ] ~doc:"Bucket size B.") in
  let d = Arg.(value & opt int 12 & info [ "domain" ] ~doc:"Group domain size |D|.") in
  Cmd.v (Cmd.info "storage" ~doc:"Table 10 / Figure 8 storage comparison.")
    Term.(const run_storage $ l $ t $ k $ rows $ n $ b $ d)

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"The paper's worked example.") Term.(const run_demo $ const ())

let port_arg = Arg.(value & opt int 7477 & info [ "port" ] ~doc:"Server port.")
let name_arg = Arg.(value & opt string "default" & info [ "name" ] ~doc:"Remote table name.")
let key_file_arg =
  Arg.(value & opt string "sagma.key" & info [ "key-file" ] ~doc:"Secret client state file.")

let remote_upload_cmd =
  let group_by =
    Arg.(non_empty & opt (list string) [] & info [ "group-by" ] ~doc:"Group columns.")
  in
  let value_cols =
    Arg.(non_empty & opt (list string) [] & info [ "values" ] ~doc:"Value columns.")
  in
  let filter_cols =
    Arg.(value & opt (list string) [] & info [ "filters" ] ~doc:"Filter columns.")
  in
  let bucket = Arg.(value & opt int 2 & info [ "bucket-size" ] ~doc:"Bucket size B.") in
  let threshold = Arg.(value & opt int 2 & info [ "threshold" ] ~doc:"Max grouping attributes t.") in
  let seed = Arg.(value & opt string "sagma-cli" & info [ "seed" ] ~doc:"DRBG seed.") in
  Cmd.v
    (Cmd.info "remote-upload"
       ~doc:"Encrypt a CSV, save the client key locally and upload ciphertexts to a sagma_server.")
    Term.(
      const run_remote_upload $ csv_arg $ schema_arg $ group_by $ value_cols $ filter_cols
      $ bucket $ threshold $ seed $ port_arg $ name_arg $ key_file_arg)

let remote_query_cmd =
  let sum = Arg.(value & opt (some string) None & info [ "sum" ] ~doc:"SUM this column.") in
  let count = Arg.(value & flag & info [ "count" ] ~doc:"COUNT rows per group.") in
  let avg = Arg.(value & opt (some string) None & info [ "avg" ] ~doc:"AVG this column.") in
  let group_by =
    Arg.(non_empty & opt (list string) [] & info [ "group-by" ] ~doc:"Grouping columns.")
  in
  let where =
    Arg.(value & opt_all string [] & info [ "where" ] ~doc:"Equality filter col=value.")
  in
  let seed = Arg.(value & opt string "sagma-cli" & info [ "seed" ] ~doc:"DRBG seed.") in
  let explain =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Set the sampling flag so the server traces this request, and print the \
                   EXPLAIN trailer (per-phase timings and cost block) from the reply.")
  in
  Cmd.v
    (Cmd.info "remote-query"
       ~doc:"Send a grouping token to a sagma_server and decrypt the returned aggregates.")
    Term.(
      const run_remote_query $ sum $ count $ avg $ group_by $ where $ port_arg $ name_arg
      $ key_file_arg $ seed $ explain)

let stats_cmd =
  let prometheus =
    Arg.(value & flag
         & info [ "prometheus" ] ~doc:"Emit the Prometheus text-format exposition.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the whole stats report as one JSON object (snapshot, uptime, gc, \
                   audit, topology).")
  in
  let cluster =
    Arg.(value & flag
         & info [ "cluster" ]
             ~doc:"Against a coordinator: render each {shard=\"i\"}-labeled series as a \
                   per-shard column next to the fleet aggregate.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Fetch a sagma_server's metrics snapshot and audit summary.")
    Term.(const run_stats $ port_arg $ prometheus $ json $ cluster)

let top_cmd =
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~doc:"Seconds between Stats polls (default 2).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print a single frame (rates averaged over the server's uptime) and exit — \
                   for scripts and CI.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live resource dashboard for a sagma_server: req/s, p95 latency, pairings/s, pool \
             queue depth, shed connections and heap size, polled over the Stats RPC.")
    Term.(const run_top $ port_arg $ interval $ once)

let trace_cmd =
  let out =
    Arg.(value & opt string "sagma_trace.json"
         & info [ "out" ] ~doc:"Output file for the Chrome trace-event JSON (- for stdout).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Export a sagma_server's completed request traces as Chrome trace-event JSON \
             (view in chrome://tracing or Perfetto).")
    Term.(const run_trace $ port_arg $ out)

let health_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the health report as one JSON object.")
  in
  let watch =
    Arg.(value & flag
         & info [ "watch" ] ~doc:"Re-poll and redraw at --interval instead of exiting.")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~doc:"Seconds between polls with --watch (default 2).")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Fetch a sagma_server's health report: status, firing SLO alerts and (on a \
             coordinator) per-shard reachability. Exits non-zero unless the status is a \
             clean \"ok\" with no alerts.")
    Term.(const run_health $ port_arg $ json $ watch $ interval)

let () =
  let info = Cmd.info "sagma" ~version:"1.0.0" ~doc:"Secure aggregation grouped by multiple attributes." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ query_cmd; inspect_cmd; storage_cmd; demo_cmd; remote_upload_cmd; remote_query_cmd;
            stats_cmd; top_cmd; trace_cmd; health_cmd ]))
