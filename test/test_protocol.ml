(* Tests for the serialization layer and the client/server protocol:
   codec roundtrips (including qcheck on the wire primitives), the
   key-free server handler, full client/server exchanges over a real
   socket pair, and client-state persistence. *)

module W = Sagma_wire.Wire
module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module P = Sagma_protocol.Protocol
module Server = Sagma_protocol.Server
module Transport = Sagma_protocol.Transport
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

(* --- wire primitives -------------------------------------------------------- *)

let test_wire_primitives () =
  let s = W.sink () in
  W.put_u8 s 255;
  W.put_u32 s 123456;
  W.put_int s (-42);
  W.put_int s max_int;
  W.put_bool s true;
  W.put_bytes s "hello\x00world";
  W.put_list s (fun s v -> W.put_int s v) [ 1; 2; 3 ];
  W.put_option s (fun s v -> W.put_bytes s v) (Some "x");
  W.put_option s (fun s v -> W.put_bytes s v) None;
  let src = W.source (W.contents s) in
  Alcotest.(check int) "u8" 255 (W.get_u8 src);
  Alcotest.(check int) "u32" 123456 (W.get_u32 src);
  Alcotest.(check int) "neg int" (-42) (W.get_int src);
  Alcotest.(check int) "max int" max_int (W.get_int src);
  Alcotest.(check bool) "bool" true (W.get_bool src);
  Alcotest.(check string) "bytes" "hello\x00world" (W.get_bytes src);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (W.get_list src W.get_int);
  Alcotest.(check (option string)) "some" (Some "x") (W.get_option src W.get_bytes);
  Alcotest.(check (option string)) "none" None (W.get_option src W.get_bytes);
  W.expect_end src

let test_wire_errors () =
  Alcotest.check_raises "truncated" (W.Decode_error "truncated input: need 4 bytes, have 0")
    (fun () -> ignore (W.get_u32 (W.source "")));
  Alcotest.check_raises "trailing" (W.Decode_error "trailing garbage: 1 bytes") (fun () ->
      ignore (W.decode W.get_u8 "ab"))

(* --- scheme-level roundtrips -------------------------------------------------- *)

let schema : Table.schema =
  [ { Table.name = "v"; ty = Value.TInt };
    { Table.name = "g"; ty = Value.TStr };
    { Table.name = "f"; ty = Value.TInt } ]

let table =
  let d = Drbg.create "protocol-data" in
  Table.of_rows schema
    (List.init 15 (fun _ ->
         [| vi (Drbg.int_below d 100);
            str [| "x"; "y"; "z" |].(Drbg.int_below d 3);
            vi (Drbg.int_below d 2) |]))

let config =
  Config.make ~bucket_size:2 ~max_group_attrs:1 ~filter_columns:[ "f" ]
    ~value_columns:[ "v" ] ~group_columns:[ "g" ] ()

let client =
  Scheme.setup config
    ~domains:[ ("g", [ str "x"; str "y"; str "z" ]) ]
    (Drbg.create "protocol-client")

let enc = Scheme.encrypt_table client table

let query = Query.make ~group_by:[ "g" ] (Query.Sum "v")

let results_of c e q =
  List.map
    (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
    (Scheme.query c e q)

let expected = results_of client enc query

let test_enc_table_roundtrip () =
  let encoded = Serialize.enc_table_to_string enc in
  let decoded = Serialize.enc_table_of_string encoded in
  (* Deterministic canonical encoding. *)
  Alcotest.(check string) "stable encoding" encoded (Serialize.enc_table_to_string decoded);
  (* The decoded table still answers queries correctly. *)
  Alcotest.(check (list (triple (list string) int int))) "still queryable" expected
    (results_of client decoded query)

let test_token_and_aggregate_roundtrip () =
  let tok = Scheme.token client query in
  let tok' = Serialize.token_of_string (Serialize.token_to_string tok) in
  let agg = Scheme.aggregate enc tok' in
  let agg' = Serialize.agg_result_of_string (Serialize.agg_result_to_string agg) in
  let results = Scheme.decrypt client tok' agg' ~total_rows:(Array.length enc.Scheme.rows) in
  Alcotest.(check (list (triple (list string) int int))) "through the wire" expected
    (List.map
       (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
       results)

let test_client_persistence () =
  let saved = Serialize.client_to_string client in
  let restored = Serialize.client_of_string ~drbg:(Drbg.create "restored-session") saved in
  (* The restored client can decrypt data encrypted by the original... *)
  Alcotest.(check (list (triple (list string) int int))) "restored decrypts" expected
    (results_of restored enc query);
  (* ...and encrypt new tables the original can query. *)
  let enc2 = Scheme.encrypt_table restored table in
  Alcotest.(check (list (triple (list string) int int))) "restored encrypts" expected
    (results_of client enc2 query)

let test_corrupted_input_rejected () =
  let encoded = Serialize.token_to_string (Scheme.token client query) in
  let truncated = String.sub encoded 0 (String.length encoded - 3) in
  Alcotest.(check bool) "truncation detected" true
    (try
       ignore (Serialize.token_of_string truncated);
       false
     with W.Decode_error _ -> true)

(* --- server handler ------------------------------------------------------------ *)

let test_server_handler () =
  let state = Server.create () in
  Alcotest.(check bool) "upload" true
    (Server.handle state (P.Upload { name = "t"; table = enc }) = P.Ack);
  (match Server.handle state P.List_tables with
   | P.Tables [ ("t", 15) ] -> ()
   | _ -> Alcotest.fail "bad listing");
  let tok = Scheme.token client query in
  (match Server.handle state (P.Aggregate { name = "t"; token = tok }) with
   | P.Aggregates agg ->
     let results = Scheme.decrypt client tok agg ~total_rows:15 in
     Alcotest.(check (list (triple (list string) int int))) "server aggregate" expected
       (List.map
          (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
          results)
   | _ -> Alcotest.fail "expected aggregates");
  (match Server.handle state (P.Aggregate { name = "missing"; token = tok }) with
   | P.Failed _ -> ()
   | _ -> Alcotest.fail "expected failure");
  Alcotest.(check bool) "drop" true (Server.handle state (P.Drop "t") = P.Ack);
  (match Server.handle state (P.Drop "t") with
   | P.Failed _ -> ()
   | _ -> Alcotest.fail "double drop")

let test_server_remote_append () =
  let state = Server.create () in
  ignore (Server.handle state (P.Upload { name = "t"; table = enc }));
  let row, keywords =
    Scheme.append_payload client ~values:[| 55 |] ~groups:[| str "x" |]
      ~filters:[ ("f", vi 0) ]
  in
  Alcotest.(check bool) "append ok" true
    (Server.handle state (P.Append { name = "t"; row; keywords; row_id = None }) = P.Ack);
  let tok = Scheme.token client query in
  match Server.handle state (P.Aggregate { name = "t"; token = tok }) with
  | P.Aggregates agg ->
    let results = Scheme.decrypt client tok agg ~total_rows:16 in
    let x_row =
      List.find (fun r -> r.Scheme.group = [ str "x" ]) results
    in
    let x_before = List.find (fun (g, _, _) -> g = [ "x" ]) expected in
    let _, sum_before, count_before = x_before in
    Alcotest.(check int) "sum grew" (sum_before + 55) x_row.Scheme.sum;
    Alcotest.(check int) "count grew" (count_before + 1) x_row.Scheme.count
  | _ -> Alcotest.fail "expected aggregates"

let test_malformed_request () =
  let state = Server.create () in
  let raw = Server.handle_encoded state "\xff\x00garbage" in
  Alcotest.(check int) "failure framed at the protocol version" P.version (Char.code raw.[2]);
  match P.decode_response raw with
  | P.Failed { code; message } ->
    Alcotest.(check string) "bad-request code" "bad-request" (P.error_code_to_string code);
    Alcotest.(check bool) "mentions malformed" true
      (String.length message >= 9 && String.sub message 0 9 = "malformed")
  | _ -> Alcotest.fail "expected failure"

(* --- versioned framing ---------------------------------------------------------- *)

let test_version_prefix () =
  (* Every frame opens with the magic and the current version byte. *)
  let req = P.encode_request P.List_tables in
  Alcotest.(check string) "request magic" P.magic (String.sub req 0 2);
  Alcotest.(check int) "request version" P.version (Char.code req.[2]);
  let resp = P.encode_response P.Ack in
  Alcotest.(check string) "response magic" P.magic (String.sub resp 0 2);
  Alcotest.(check int) "response version" P.version (Char.code resp.[2]);
  (* And both round-trip. *)
  Alcotest.(check bool) "request roundtrip" true (P.decode_request req = P.List_tables);
  Alcotest.(check bool) "response roundtrip" true (P.decode_response resp = P.Ack)

let flip_version (frame : string) ~(v : int) : string =
  String.mapi (fun i c -> if i = 2 then Char.chr v else c) frame

let test_other_versions_rejected () =
  (* A frame carrying another version must raise the typed exception,
     not misparse: flip the version byte of a valid frame. *)
  let req = flip_version (P.encode_request P.List_tables) ~v:(P.version + 1) in
  Alcotest.check_raises "future version"
    (P.Version_mismatch { expected = P.version; got = P.version + 1 })
    (fun () -> ignore (P.decode_request req));
  let old = flip_version (P.encode_request (P.Drop "t")) ~v:0 in
  Alcotest.check_raises "version 0"
    (P.Version_mismatch { expected = P.version; got = 0 })
    (fun () -> ignore (P.decode_request old));
  (* A frame without the magic is not a SAGMA frame at all. *)
  (match P.decode_request ("XX" ^ String.make 3 '\x01') with
   | exception W.Decode_error _ -> ()
   | _ -> Alcotest.fail "bad magic accepted")

let test_server_rejects_other_versions () =
  (* The server answers a mismatched frame with a current-version
     structured failure rather than crashing the connection. *)
  let state = Server.create () in
  let old = flip_version (P.encode_request P.List_tables) ~v:(P.version + 3) in
  match P.decode_response (Server.handle_encoded state old) with
  | P.Failed { code = P.Version_unsupported; _ } -> ()
  | P.Failed { code; _ } ->
    Alcotest.failf "wrong code %s" (P.error_code_to_string code)
  | _ -> Alcotest.fail "expected failure"

(* --- stats ----------------------------------------------------------------------- *)

let decode_with state req = P.decode_response (Server.handle_encoded state req)

let test_stats_roundtrip () =
  let module M = Sagma_obs.Metrics in
  let module A = Sagma_obs.Audit in
  M.reset ();
  M.set_enabled true;
  M.add (M.counter "test.proto_stats") 7;
  M.gauge_set (M.gauge "test.proto_gauge") 3;
  let h = M.histogram "test.proto_stats_ms" in
  M.observe h 0.5;
  M.observe h 12.0;
  M.set_enabled false;
  let report =
    { P.sr_snapshot = M.snapshot (); sr_audit = A.summary (); sr_uptime_s = 12.5;
      sr_start_time = 1000.25; sr_gc = None; sr_topology = None }
  in
  M.reset ();
  Alcotest.(check bool) "Stats roundtrips" true
    (P.decode_request (P.encode_request P.Stats) = P.Stats);
  let resp = P.Stats_report report in
  (match P.decode_response (P.encode_response resp) with
   | P.Stats_report r ->
     Alcotest.(check bool) "snapshot survives the wire" true (r.P.sr_snapshot = report.P.sr_snapshot);
     Alcotest.(check bool) "gauges survive the wire" true
       (List.assoc_opt "test.proto_gauge" r.P.sr_snapshot.Sagma_obs.Metrics.gauges = Some 3);
     Alcotest.(check bool) "audit summary survives the wire" true (r.P.sr_audit = report.P.sr_audit);
     Alcotest.(check (float 1e-9)) "uptime survives the wire" 12.5 r.P.sr_uptime_s;
     Alcotest.(check (float 1e-9)) "start time survives the wire" 1000.25 r.P.sr_start_time
   | _ -> Alcotest.fail "expected Stats_report")

let test_stats_via_server () =
  let module M = Sagma_obs.Metrics in
  let state = Server.create () in
  M.reset ();
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      M.reset ())
    (fun () ->
      (* Generate some request traffic, then ask for the numbers. *)
      ignore (decode_with state (P.encode_request P.List_tables));
      match decode_with state (P.encode_request P.Stats) with
      | P.Stats_report { P.sr_snapshot; _ } ->
        let requests = List.assoc_opt "proto.requests" sr_snapshot.M.counters in
        Alcotest.(check bool) "proto.requests counted" true
          (match requests with Some n -> n >= 1 | None -> false);
        Alcotest.(check bool) "request latency histogram present" true
          (List.mem_assoc "proto.request_ms" sr_snapshot.M.histograms)
      | _ -> Alcotest.fail "expected Stats_report from the server")

let test_error_code_roundtrip () =
  List.iter
    (fun code ->
      let resp = P.Failed { code; message = "m" } in
      Alcotest.(check bool)
        (P.error_code_to_string code)
        true
        (P.decode_response (P.encode_response resp) = resp))
    [ P.No_such_table; P.Bad_request; P.Unsupported; P.Version_unsupported;
      P.Internal_error; P.Busy ]

(* --- trace contexts, EXPLAIN trailers, Trace_dump -------------------------------- *)

module Trace = Sagma_obs.Trace

let sample_cost =
  { Trace.pairings = 1; miller_steps = 2; bgn_mul = 3; dlog_solves = 4; dlog_giant_steps = 5;
    sse_postings = 6; agg_rows = 7; agg_buckets = 8; bytes_in = 9; bytes_out = 10 }

let test_trace_ctx_roundtrip () =
  (* A request carrying a trace context: id and sampling flag survive,
     and the trace-aware decoder exposes them. *)
  let tc = { P.tc_id = Some "client-7"; tc_sampled = true } in
  (match P.decode_request_x (P.encode_request ~trace:tc P.Stats) with
   | Some tc', P.Stats ->
     Alcotest.(check (option string)) "trace id" (Some "client-7") tc'.P.tc_id;
     Alcotest.(check bool) "sampling flag" true tc'.P.tc_sampled
   | _ -> Alcotest.fail "trace context lost on the wire");
  (* Without a context the frame still decodes (None), and the plain
     decoder keeps working on the same bytes. *)
  (match P.decode_request_x (P.encode_request P.List_tables) with
   | None, P.List_tables -> ()
   | _ -> Alcotest.fail "bare request misdecoded");
  Alcotest.(check bool) "plain decoder drops the context" true
    (P.decode_request (P.encode_request ~trace:tc P.Stats) = P.Stats);
  (* Traces request roundtrips. *)
  Alcotest.(check bool) "Traces roundtrips" true
    (P.decode_request (P.encode_request P.Traces) = P.Traces)

let test_explain_roundtrip () =
  let x =
    { P.x_id = "t99-1"; x_timings = [ ("aggregate", 1.5); ("decrypt", 0.25) ];
      x_cost = sample_cost; x_gc = None }
  in
  (match P.decode_response_x (P.encode_response ~explain:x P.Ack) with
   | P.Ack, Some x' ->
     Alcotest.(check string) "explain id" "t99-1" x'.P.x_id;
     Alcotest.(check (list (pair string (float 1e-9)))) "phase timings"
       x.P.x_timings x'.P.x_timings;
     Alcotest.(check bool) "cost block" true (x'.P.x_cost = sample_cost)
   | _ -> Alcotest.fail "explain trailer lost on the wire");
  (* No trailer: the frame still carries the (empty) option. *)
  match P.decode_response_x (P.encode_response P.Ack) with
  | P.Ack, None -> ()
  | _ -> Alcotest.fail "bare response misdecoded"

let test_trace_dump_roundtrip () =
  let leaf = { Trace.name = "pairing_loop"; t0 = 10.5; ms = 3.25; children = [] } in
  let mid = { Trace.name = "aggregate"; t0 = 10.0; ms = 5.0; children = [ leaf ] } in
  let root = { Trace.name = "request"; t0 = 9.5; ms = 6.0; children = [ mid ] } in
  let rt =
    { Trace.r_id = "t1-1"; r_start = 9.5; r_root = root; r_cost = sample_cost;
      r_gc = Trace.zero_gc; r_alloc = [] }
  in
  (match P.decode_response (P.encode_response (P.Trace_dump [ rt ])) with
   | P.Trace_dump [ rt' ] ->
     Alcotest.(check string) "trace id" "t1-1" rt'.Trace.r_id;
     Alcotest.(check bool) "span tree survives" true (rt'.Trace.r_root = root);
     Alcotest.(check bool) "cost survives" true (rt'.Trace.r_cost = sample_cost)
   | _ -> Alcotest.fail "expected Trace_dump");
  (* A forged frame with a pathologically deep span tree is rejected
     instead of recursing the decoder off the stack. *)
  let deep =
    let rec build n acc =
      if n = 0 then acc
      else build (n - 1) { Trace.name = "d"; t0 = 0.; ms = 0.; children = [ acc ] }
    in
    build 80 { Trace.name = "leaf"; t0 = 0.; ms = 0.; children = [] }
  in
  let rt_deep =
    { Trace.r_id = "deep"; r_start = 0.; r_root = deep; r_cost = sample_cost;
      r_gc = Trace.zero_gc; r_alloc = [] }
  in
  (match P.decode_response (P.encode_response (P.Trace_dump [ rt_deep ])) with
   | exception W.Decode_error _ -> ()
   | _ -> Alcotest.fail "80-deep span tree decoded")

(* --- GC telemetry on the wire ---------------------------------------------------- *)

let sample_gc =
  { Trace.gc_minor_words = 4096; gc_promoted_words = 512; gc_major_words = 768;
    gc_minor_collections = 3; gc_major_collections = 1; gc_heap_words = 65536;
    gc_heap_growth = 8192 }

let sample_gc_stats =
  { P.gs_minor_words = 1e6; gs_promoted_words = 2e5; gs_major_words = 3e5;
    gs_minor_collections = 17; gs_major_collections = 4; gs_compactions = 1;
    gs_heap_words = 1 lsl 20; gs_top_heap_words = 1 lsl 21 }

let empty_snapshot = { Sagma_obs.Metrics.counters = []; gauges = []; histograms = [] }

let test_gc_roundtrip () =
  (* Stats_report heap stats survive the wire... *)
  let report =
    { P.sr_snapshot = empty_snapshot; sr_audit = Sagma_obs.Audit.summary ();
      sr_uptime_s = 1.5; sr_start_time = 10.; sr_gc = Some sample_gc_stats; sr_topology = None }
  in
  (match P.decode_response (P.encode_response (P.Stats_report report)) with
   | P.Stats_report r ->
     Alcotest.(check bool) "gc stats survive the wire" true (r.P.sr_gc = Some sample_gc_stats)
   | _ -> Alcotest.fail "expected Stats_report");
  (* ...the EXPLAIN trailer's gc differential survives... *)
  let x = { P.x_id = "x"; x_timings = []; x_cost = sample_cost; x_gc = Some sample_gc } in
  (match P.decode_response_x (P.encode_response ~explain:x P.Ack) with
   | P.Ack, Some x' ->
     Alcotest.(check bool) "explain gc survives the wire" true (x'.P.x_gc = Some sample_gc)
   | _ -> Alcotest.fail "explain trailer lost on the wire");
  (* ...and so do the trace dump's gc block and allocation table. *)
  let root = { Trace.name = "request"; t0 = 0.; ms = 1.; children = [] } in
  let rt =
    { Trace.r_id = "t5-1"; r_start = 0.; r_root = root; r_cost = sample_cost;
      r_gc = sample_gc; r_alloc = [ ("pairing_loop", 4000); ("filter", 96) ] }
  in
  (match P.decode_response (P.encode_response (P.Trace_dump [ rt ])) with
   | P.Trace_dump [ rt' ] ->
     Alcotest.(check bool) "trace gc survives" true (rt'.Trace.r_gc = sample_gc);
     Alcotest.(check bool) "alloc table survives" true
       (rt'.Trace.r_alloc = [ ("pairing_loop", 4000); ("filter", 96) ])
   | _ -> Alcotest.fail "expected Trace_dump")

(* --- transport over a real socket pair ------------------------------------------- *)

let test_socket_roundtrip () =
  let client_fd, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let state = Server.create () in
  let server_thread = Thread.create (fun () -> Transport.serve_connection (Server.handle_encoded state) server_fd) () in
  (* Upload, list, aggregate, drop — all over the framed byte stream. *)
  Alcotest.(check bool) "upload" true
    (Transport.call client_fd (P.Upload { name = "remote"; table = enc }) = P.Ack);
  (match Transport.call client_fd P.List_tables with
   | P.Tables [ ("remote", 15) ] -> ()
   | _ -> Alcotest.fail "bad listing");
  let tok = Scheme.token client query in
  (match Transport.call client_fd (P.Aggregate { name = "remote"; token = tok }) with
   | P.Aggregates agg ->
     let results = Scheme.decrypt client tok agg ~total_rows:15 in
     Alcotest.(check (list (triple (list string) int int))) "socket aggregate" expected
       (List.map
          (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
          results)
   | _ -> Alcotest.fail "expected aggregates");
  Unix.close client_fd;
  Thread.join server_thread;
  Unix.close server_fd

(* --- concurrent serving (listen_and_serve + domain pool) ------------------------ *)

(* A live TCP server on [port] with table "t" preloaded, torn down
   gracefully (stop flag + drain) when [f] returns. *)
let with_live_server ?(workers = 2) ?(max_conns = 16) ?(request_timeout_ms = 0) ?max_frame
    ?(trace_sample = 0) ?(slow_query_ms = 0.) ~port f =
  let state = Server.create ~trace_sample ~slow_query_ms () in
  (match Server.handle state (P.Upload { name = "t"; table = enc }) with
   | P.Ack -> ()
   | _ -> Alcotest.fail "preload upload failed");
  let stop = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Transport.listen_and_serve ~workers ~max_conns ~request_timeout_ms ?max_frame
          ~stop:(fun () -> Atomic.get stop)
          ~port (Server.handle_encoded state))
  in
  let rec wait_up tries =
    match Transport.connect ~port () with
    | fd -> Unix.close fd
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
      Unix.sleepf 0.02;
      wait_up (tries - 1)
  in
  wait_up 250;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    f

(* COUNT keeps per-request service time small enough for latency
   assertions (SUM drags CRT-channel pairings through every request). *)
let count_query = Query.make ~group_by:[ "g" ] Query.Count
let expected_counts = results_of client enc count_query

let aggregate_round fd =
  let tok = Scheme.token client count_query in
  match Transport.call fd (P.Aggregate { name = "t"; token = tok }) with
  | P.Aggregates agg ->
    List.map
      (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
      (Scheme.decrypt client tok agg ~total_rows:15)
  | _ -> Alcotest.fail "expected aggregates"

let test_parallel_clients () =
  with_live_server ~workers:3 ~port:7491 (fun _ ->
      let errors = Atomic.make 0 in
      let threads =
        List.init 3 (fun i ->
            Thread.create
              (fun i ->
                let fd = Transport.connect ~port:7491 () in
                Fun.protect
                  ~finally:(fun () -> Unix.close fd)
                  (fun () ->
                    for _ = 1 to 4 do
                      if i = 0 then begin
                        (* One client lists tables between the others'
                           aggregates; replies are framed at the one
                           protocol version. *)
                        Transport.send fd (P.encode_request P.List_tables);
                        let raw = Transport.recv fd in
                        if Char.code raw.[2] <> P.version then Atomic.incr errors
                        else
                          match P.decode_response raw with
                          | P.Tables [ ("t", 15) ] -> ()
                          | _ -> Atomic.incr errors
                      end
                      else if aggregate_round fd <> expected_counts then Atomic.incr errors
                    done))
              i)
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "all parallel clients answered correctly" 0 (Atomic.get errors))

let test_stalled_client_isolated () =
  with_live_server ~workers:2 ~request_timeout_ms:300 ~port:7492 (fun _ ->
      let stall_s = 0.8 in
      let staller =
        Thread.create
          (fun () ->
            let fd = Transport.connect ~port:7492 () in
            (* Two bytes of a frame header, then silence: the read
               deadline must reclaim this connection's worker without
               touching anyone else's. *)
            ignore (Unix.write fd (Bytes.of_string "\x00\x00") 0 2);
            Thread.delay stall_s;
            Unix.close fd)
          ()
      in
      Thread.delay 0.05;
      let fd = Transport.connect ~port:7492 () in
      let max_latency = ref 0. in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          for _ = 1 to 5 do
            let t0 = Unix.gettimeofday () in
            (match Transport.call fd P.List_tables with
             | P.Tables [ ("t", 15) ] -> ()
             | _ -> Alcotest.fail "bad reply during stall");
            max_latency := Float.max !max_latency (Unix.gettimeofday () -. t0)
          done);
      Thread.join staller;
      Alcotest.(check bool)
        (Printf.sprintf "fast client unaffected by staller (max %.0f ms)"
           (!max_latency *. 1000.))
        true
        (!max_latency < stall_s /. 2.))

let test_midrequest_disconnect () =
  with_live_server ~workers:2 ~port:7493 (fun _ ->
      (* A peer that dies mid-frame: header promising 100 bytes, 10
         delivered, then gone. *)
      let fd = Transport.connect ~port:7493 () in
      let partial = Bytes.of_string "\x00\x00\x00\x64partial..." in
      ignore (Unix.write fd partial 0 (Bytes.length partial));
      Unix.close fd;
      Unix.sleepf 0.05;
      (* The server must shrug that connection off and keep serving. *)
      let fd = Transport.connect ~port:7493 () in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Alcotest.(check (list (triple (list string) int int)))
            "server still serving after mid-request disconnect" expected_counts
            (aggregate_round fd)))

let test_max_conns_shed () =
  with_live_server ~workers:2 ~max_conns:1 ~port:7494 (fun _ ->
      Unix.sleepf 0.05;
      (* occupies the single in-flight slot *)
      let holder = Transport.connect ~port:7494 () in
      Unix.sleepf 0.2;
      let shed = Transport.connect ~port:7494 () in
      (match P.decode_response (Transport.recv shed) with
       | P.Failed { code = P.Busy; _ } -> ()
       | _ -> Alcotest.fail "expected Failed Busy over the limit");
      Unix.close shed;
      Unix.close holder;
      Unix.sleepf 0.2;
      (* slot freed: the next client is served normally again *)
      let fd = Transport.connect ~port:7494 () in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match Transport.call fd P.List_tables with
          | P.Tables [ ("t", 15) ] -> ()
          | _ -> Alcotest.fail "server did not recover after shedding"))

(* A --workers 4 server tracing every request, hammered by parallel
   clients. Every sampled aggregate reply
   must carry an EXPLAIN trailer; every captured trace must be one
   intact tree (aggregate an ancestor of pairing_loop) with a cost block
   scoped to its own request — no cross-request leakage even though
   requests run concurrently on pool domains. *)
let test_traced_parallel_clients () =
  let module M = Sagma_obs.Metrics in
  M.reset ();
  Trace.reset ();
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      M.reset ();
      Trace.reset ())
    (fun () ->
      with_live_server ~workers:4 ~trace_sample:1 ~port:7496 (fun _ ->
          let errors = Atomic.make 0 in
          let explains = Atomic.make 0 in
          let threads =
            List.init 4 (fun i ->
                Thread.create
                  (fun i ->
                    let fd = Transport.connect ~port:7496 () in
                    Fun.protect
                      ~finally:(fun () -> Unix.close fd)
                      (fun () ->
                        for _ = 1 to 3 do
                          if i = 0 then begin
                            (* One peer lists tables without a trace
                               context; its replies still decode. *)
                            Transport.send fd (P.encode_request P.List_tables);
                            let raw = Transport.recv fd in
                            if Char.code raw.[2] <> P.version then Atomic.incr errors
                            else
                              match P.decode_response raw with
                              | P.Tables [ ("t", 15) ] -> ()
                              | _ -> Atomic.incr errors
                          end
                          else begin
                            let tok = Scheme.token client count_query in
                            match
                              Transport.call_x
                                ~trace:{ P.tc_id = Some (Printf.sprintf "cli%d" i);
                                         tc_sampled = true }
                                fd (P.Aggregate { name = "t"; token = tok })
                            with
                            | P.Aggregates agg, x ->
                              (match x with
                               | Some x ->
                                 Atomic.incr explains;
                                 if x.P.x_cost.Trace.agg_rows <> 15 then Atomic.incr errors
                               | None -> Atomic.incr errors);
                              let results =
                                List.map
                                  (fun r ->
                                    ( List.map Value.to_string r.Scheme.group, r.Scheme.sum,
                                      r.Scheme.count ))
                                  (Scheme.decrypt client tok agg ~total_rows:15)
                              in
                              if results <> expected_counts then Atomic.incr errors
                            | _ -> Atomic.incr errors
                          end
                        done))
                  i)
          in
          List.iter Thread.join threads;
          Alcotest.(check int) "all traced parallel clients answered correctly" 0
            (Atomic.get errors);
          Alcotest.(check int) "every sampled aggregate reply carried an EXPLAIN trailer" 9
            (Atomic.get explains);
          (* Pull the completed ring over the Traces RPC and validate
             every aggregate trace's shape and cost attribution. *)
          let fd = Transport.connect ~port:7496 () in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              match Transport.call fd P.Traces with
              | P.Trace_dump traces ->
                let rec has name s =
                  s.Trace.name = name || List.exists (has name) s.Trace.children
                in
                let agg_traces =
                  List.filter
                    (fun rt ->
                      List.exists
                        (fun c -> c.Trace.name = "aggregate")
                        rt.Trace.r_root.Trace.children)
                    traces
                in
                Alcotest.(check int) "one intact trace per sampled aggregate" 9
                  (List.length agg_traces);
                List.iter
                  (fun rt ->
                    let agg =
                      List.find
                        (fun c -> c.Trace.name = "aggregate")
                        rt.Trace.r_root.Trace.children
                    in
                    Alcotest.(check bool) "aggregate is an ancestor of pairing_loop" true
                      (has "pairing_loop" agg);
                    (* Concurrent requests each walked exactly table "t"'s
                       15 rows: any other number means another request's
                       counters bled into this scope. *)
                    Alcotest.(check int) "cost scoped to this request" 15
                      rt.Trace.r_cost.Trace.agg_rows)
                  agg_traces;
                Alcotest.(check bool) "wire-propagated trace ids preserved" true
                  (List.exists (fun rt -> rt.Trace.r_id = "cli1") agg_traces)
              | _ -> Alcotest.fail "expected Trace_dump")))

let test_oversized_frame_rejected () =
  with_live_server ~workers:2 ~max_frame:65536 ~port:7495 (fun _ ->
      let fd = Transport.connect ~port:7495 () in
      (* Header claiming 64 MiB against a 64 KiB cap: the server must
         drop the connection up front instead of buffering the claim. *)
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (64 * 1024 * 1024));
      ignore (Unix.write fd header 0 4);
      (match Transport.recv fd with
       | _ -> Alcotest.fail "oversized frame should sever the connection"
       | exception Failure _ -> ());
      Unix.close fd;
      let fd = Transport.connect ~port:7495 () in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          match Transport.call fd P.List_tables with
          | P.Tables [ ("t", 15) ] -> ()
          | _ -> Alcotest.fail "server did not survive an oversized frame"))

(* --- scatter-gather sharding ----------------------------------------------------- *)

module Router = Sagma_protocol.Router
module Sse = Sagma_sse.Sse

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let sample_topology =
  { P.tp_role = "shard"; tp_shard_index = 1; tp_shard_count = 4;
    tp_shards = [ "7481"; "7482"; "host:7483"; "7484" ] }

(* A construct is gated to the one protocol version: it round-trips in a
   current frame, and the same bytes claiming any other version byte —
   what a stale binary would send or expect — raise [Version_mismatch]
   instead of being misparsed. *)
let check_other_versions_rejected what decode frame =
  List.iter
    (fun v ->
      match decode (flip_version frame ~v) with
      | exception P.Version_mismatch { expected; got } when expected = P.version && got = v -> ()
      | exception e -> Alcotest.failf "%s at version %d: %s" what v (Printexc.to_string e)
      | _ -> Alcotest.failf "%s accepted inside a version-%d frame" what v)
    [ 1; P.version - 1; P.version + 1 ]

let test_topology_roundtrip () =
  let report =
    { P.sr_snapshot = empty_snapshot; sr_audit = Sagma_obs.Audit.summary ();
      sr_uptime_s = 1.; sr_start_time = 10.; sr_gc = Some sample_gc_stats;
      sr_topology = Some sample_topology }
  in
  (match P.decode_response (P.encode_response (P.Stats_report report)) with
   | P.Stats_report r ->
     Alcotest.(check bool) "topology survives the wire" true
       (r.P.sr_topology = Some sample_topology);
     Alcotest.(check bool) "gc stats survive alongside" true (r.P.sr_gc = Some sample_gc_stats)
   | _ -> Alcotest.fail "expected Stats_report");
  check_other_versions_rejected "topology" P.decode_response
    (P.encode_response (P.Stats_report report))

let test_append_row_id_roundtrip () =
  let row, keywords =
    Scheme.append_payload client ~values:[| 1 |] ~groups:[| str "x" |] ~filters:[ ("f", vi 0) ]
  in
  let req = P.Append { name = "t"; row; keywords; row_id = Some 15 } in
  (* The coordinator-stamped row id survives the wire. *)
  (match P.decode_request (P.encode_request req) with
   | P.Append { row_id = Some 15; _ } -> ()
   | _ -> Alcotest.fail "row id lost on the wire");
  check_other_versions_rejected "stamped append" P.decode_request (P.encode_request req)

(* Upload accepted any table name — including "" and multi-MiB strings
   that bloat every List_tables reply. Empty and oversized names are now
   Bad_request; anything else, however weird, round-trips. *)
let test_table_name_validation () =
  let state = Server.create () in
  (match Server.handle state (P.Upload { name = ""; table = enc }) with
   | P.Failed { code = P.Bad_request; _ } -> ()
   | _ -> Alcotest.fail "empty table name accepted");
  let big = String.make (2 * 1024 * 1024) 'a' in
  (match Server.handle state (P.Upload { name = big; table = enc }) with
   | P.Failed { code = P.Bad_request; _ } -> ()
   | _ -> Alcotest.fail "multi-MiB table name accepted");
  (match Server.handle state (P.Drop "") with
   | P.Failed _ -> ()
   | _ -> Alcotest.fail "dropping the empty name succeeded");
  (* Weird-but-bounded names (spaces, NUL, non-UTF-8 bytes) are data,
     not errors. *)
  let weird = "we ird\ttable\xc3\xa9\x00name" in
  Alcotest.(check bool) "weird name uploads" true
    (Server.handle state (P.Upload { name = weird; table = enc }) = P.Ack);
  (match Server.handle state P.List_tables with
   | P.Tables [ (n, 15) ] when n = weird -> ()
   | _ -> Alcotest.fail "weird name mangled in listing");
  Alcotest.(check bool) "weird name drops" true (Server.handle state (P.Drop weird) = P.Ack)

(* Append recomputed every keyword's posting counter with a full
   [Sse.search] under the registry lock — O(postings) per append. The
   per-token counter cache makes warm appends O(1): against a
   10k-posting token, the first append pays one search and the rest
   scan nothing. *)
let test_append_posting_count_cached () =
  let module M = Sagma_obs.Metrics in
  let fat_tok = Sse.token (Sse.gen (Drbg.create "pr9-fat")) "fat-keyword" in
  let postings = 10_000 in
  let dict = Hashtbl.copy enc.Scheme.index.Sse.dict in
  for c = 0 to postings - 1 do
    let label, value = Sse.entry fat_tok c (c mod 15) in
    Hashtbl.add dict label value
  done;
  let fat_enc =
    { enc with Scheme.index = { Sse.dict; entries = enc.Scheme.index.Sse.entries + postings } }
  in
  let state = Server.create () in
  (match Server.handle state (P.Upload { name = "t"; table = fat_enc }) with
   | P.Ack -> ()
   | _ -> Alcotest.fail "upload failed");
  let row, _ =
    Scheme.append_payload client ~values:[| 1 |] ~groups:[| str "x" |] ~filters:[ ("f", vi 0) ]
  in
  let append () =
    match Server.handle state (P.Append { name = "t"; row; keywords = [ fat_tok ]; row_id = None }) with
    | P.Ack -> ()
    | _ -> Alcotest.fail "append failed"
  in
  M.reset ();
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      M.reset ())
    (fun () ->
      let scanned () =
        match List.assoc_opt "sse.postings_scanned" (M.snapshot ()).M.counters with
        | Some n -> n
        | None -> 0
      in
      append ();
      let cold = scanned () in
      Alcotest.(check bool)
        (Printf.sprintf "cold append walked the %d postings once (%d)" postings cold)
        true (cold >= postings);
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 50 do append () done;
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "warm appends scan no postings" cold (scanned ());
      Alcotest.(check bool)
        (Printf.sprintf "50 warm appends took %.0f ms" (elapsed *. 1000.))
        true (elapsed < 2.))

(* The EXPLAIN cost block's bytes_out was filled from the response's
   first encoding, before the trailer itself was attached — always
   short. It must equal the final frame length, trailer included. *)
let test_explain_bytes_out_exact () =
  let module M = Sagma_obs.Metrics in
  let state = Server.create ~trace_sample:1 () in
  ignore (Server.handle state (P.Upload { name = "t"; table = enc }));
  M.reset ();
  Trace.reset ();
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      M.reset ();
      Trace.reset ())
    (fun () ->
      let tok = Scheme.token client query in
      let raw =
        Server.handle_encoded state
          (P.encode_request
             ~trace:{ P.tc_id = None; tc_sampled = true }
             (P.Aggregate { name = "t"; token = tok }))
      in
      match P.decode_response_x raw with
      | P.Aggregates _, Some x ->
        Alcotest.(check int) "bytes_out equals the final frame length" (String.length raw)
          x.P.x_cost.Trace.bytes_out
      | _, None -> Alcotest.fail "sampled reply carried no EXPLAIN trailer"
      | _ -> Alcotest.fail "expected a traced aggregate reply")

(* A live TCP endpoint serving an arbitrary raw-frame handler — the
   building block for the cluster tests below. *)
let with_handler ?(workers = 0) ~port handler f =
  let stop = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Transport.listen_and_serve ~workers ~max_conns:16 ~request_timeout_ms:0
          ~stop:(fun () -> Atomic.get stop)
          ~port handler)
  in
  let rec wait_up tries =
    match Transport.connect ~port () with
    | fd -> Unix.close fd
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when tries > 0 ->
      Unix.sleepf 0.02;
      wait_up (tries - 1)
  in
  wait_up 250;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    f

let test_coordinator_scatter_gather () =
  let module M = Sagma_obs.Metrics in
  let counter name = Option.value ~default:0 (List.assoc_opt name (M.snapshot ()).M.counters) in
  let dlog_solves () = counter "bgn.dlog.solves" in
  let s0 = Server.create ~shard:(0, 2) () in
  let s1 = Server.create ~shard:(1, 2) () in
  M.reset ();
  M.set_enabled true;
  with_handler ~port:7481 (Server.handle_encoded s0) (fun () ->
      with_handler ~port:7482 (Server.handle_encoded s1) (fun () ->
          let r = Router.create [ "7481"; "7482" ] in
          Fun.protect
            ~finally:(fun () ->
              Router.shutdown r;
              M.set_enabled false;
              M.reset ())
            (fun () ->
              (match Router.handle r (P.Upload { name = "t"; table = enc }) with
               | P.Ack -> ()
               | P.Failed { message; _ } -> Alcotest.failf "coordinator upload: %s" message
               | _ -> Alcotest.fail "unexpected upload reply");
              let tok = Scheme.token client query in
              let solves_before = dlog_solves () in
              let calls_before = counter "router.shard_calls" in
              let merged =
                match Router.handle r (P.Aggregate { name = "t"; token = tok }) with
                | P.Aggregates a -> a
                | P.Failed { message; _ } -> Alcotest.failf "coordinator aggregate: %s" message
                | _ -> Alcotest.fail "unexpected aggregate reply"
              in
              Alcotest.(check int) "one aggregate call per shard" 2
                (counter "router.shard_calls" - calls_before);
              (* Shards and coordinator only pair and ⊕-merge: discrete
                 logs are the client's job, inside its decrypt. *)
              Alcotest.(check int) "no dlog solved while coordinating" solves_before
                (dlog_solves ());
              (* The ⊕-merged partials are byte-identical to the answer a
                 single unsharded server computes. *)
              Alcotest.(check string) "merged result byte-identical to the single-server answer"
                (Serialize.agg_result_to_string (Scheme.aggregate enc tok))
                (Serialize.agg_result_to_string merged);
              (* An append fans to every replica (with a stamped global
                 row id) and shows up in the next merged aggregate. *)
              let row, keywords =
                Scheme.append_payload client ~values:[| 55 |] ~groups:[| str "x" |]
                  ~filters:[ ("f", vi 0) ]
              in
              (match Router.handle r (P.Append { name = "t"; row; keywords; row_id = None }) with
               | P.Ack -> ()
               | P.Failed { message; _ } -> Alcotest.failf "coordinator append: %s" message
               | _ -> Alcotest.fail "unexpected append reply");
              match Router.handle r (P.Aggregate { name = "t"; token = tok }) with
              | P.Aggregates agg ->
                let solves_before = dlog_solves () in
                let results = Scheme.decrypt client tok agg ~total_rows:16 in
                Alcotest.(check bool) "the client's decrypt solves dlogs" true
                  (dlog_solves () > solves_before);
                let x_row = List.find (fun r -> r.Scheme.group = [ str "x" ]) results in
                let _, sum_before, count_before =
                  List.find (fun (g, _, _) -> g = [ "x" ]) expected
                in
                Alcotest.(check int) "appended sum visible through the coordinator"
                  (sum_before + 55) x_row.Scheme.sum;
                Alcotest.(check int) "appended count visible through the coordinator"
                  (count_before + 1) x_row.Scheme.count
              | _ -> Alcotest.fail "unexpected aggregate reply after append")))

(* A failed append must not wedge the table: shard 1 fails its first
   Append without applying it, so shard 0 holds the row and shard 1 does
   not. The coordinator's retry carries the same stamped row id; shard 0
   acknowledges the row it already holds, shard 1 applies it, and later
   appends line up again. *)
let test_coordinator_append_retry () =
  let s0 = Server.create ~shard:(0, 2) () in
  let s1 = Server.create ~shard:(1, 2) () in
  let failed_once = Atomic.make false in
  let flaky_append raw =
    match P.decode_request raw with
    | P.Append _ when not (Atomic.exchange failed_once true) ->
      P.encode_response (P.failed P.Internal_error "injected")
    | _ | (exception _) -> Server.handle_encoded s1 raw
  in
  with_handler ~port:7487 (Server.handle_encoded s0) (fun () ->
      with_handler ~port:7488 flaky_append (fun () ->
          let r = Router.create [ "7487"; "7488" ] in
          Fun.protect
            ~finally:(fun () -> Router.shutdown r)
            (fun () ->
              (match Router.handle r (P.Upload { name = "t"; table = enc }) with
               | P.Ack -> ()
               | _ -> Alcotest.fail "coordinator upload failed");
              let append value group =
                let row, keywords =
                  Scheme.append_payload client ~values:[| value |] ~groups:[| str group |]
                    ~filters:[ ("f", vi 0) ]
                in
                fun () -> Router.handle r (P.Append { name = "t"; row; keywords; row_id = None })
              in
              let first = append 55 "x" in
              (match first () with
               | P.Failed _ -> ()
               | _ -> Alcotest.fail "the injected shard failure must fail the append");
              (match first () with
               | P.Ack -> ()
               | P.Failed { message; _ } -> Alcotest.failf "append retry: %s" message
               | _ -> Alcotest.fail "unexpected append retry reply");
              (match append 7 "y" () with
               | P.Ack -> ()
               | P.Failed { message; _ } -> Alcotest.failf "append after retry: %s" message
               | _ -> Alcotest.fail "unexpected append reply");
              let tok = Scheme.token client query in
              match Router.handle r (P.Aggregate { name = "t"; token = tok }) with
              | P.Aggregates agg ->
                let results = Scheme.decrypt client tok agg ~total_rows:17 in
                List.iter
                  (fun (group, value) ->
                    let row = List.find (fun r -> r.Scheme.group = [ str group ]) results in
                    let _, sum, count = List.find (fun (g, _, _) -> g = [ group ]) expected in
                    Alcotest.(check int) ("sum of " ^ group) (sum + value) row.Scheme.sum;
                    Alcotest.(check int) ("count of " ^ group) (count + 1) row.Scheme.count)
                  [ ("x", 55); ("y", 7) ]
              | _ -> Alcotest.fail "unexpected aggregate reply after the appends")))

(* A slow append must not hold up queries: the coordinator serialises
   appends (row-id stamping) but reads a table's public key apart from
   that lock. Shard 0 sleeps on every Append and serves two connections
   at once, so only the coordinator could make the Aggregate wait. *)
let test_coordinator_query_during_append () =
  let s0 = Server.create ~shard:(0, 2) () in
  let s1 = Server.create ~shard:(1, 2) () in
  let slow_appends raw =
    (match P.decode_request raw with
     | P.Append _ -> Unix.sleepf 0.5
     | _ | (exception _) -> ());
    Server.handle_encoded s0 raw
  in
  with_handler ~workers:2 ~port:7485 slow_appends (fun () ->
      with_handler ~port:7486 (Server.handle_encoded s1) (fun () ->
          let r = Router.create [ "7485"; "7486" ] in
          Fun.protect
            ~finally:(fun () -> Router.shutdown r)
            (fun () ->
              (match Router.handle r (P.Upload { name = "t"; table = enc }) with
               | P.Ack -> ()
               | _ -> Alcotest.fail "coordinator upload failed");
              let aggregate () =
                Router.handle r (P.Aggregate { name = "t"; token = Scheme.token client query })
              in
              (* Warm the shards' pairing precomputations, so the timed
                 query below costs tens of milliseconds, not the first
                 query's ~200. *)
              ignore (aggregate ());
              let row, keywords =
                Scheme.append_payload client ~values:[| 1 |] ~groups:[| str "y" |]
                  ~filters:[ ("f", vi 1) ]
              in
              let append =
                Domain.spawn (fun () ->
                    Router.handle r (P.Append { name = "t"; row; keywords; row_id = None }))
              in
              Unix.sleepf 0.05;
              let t0 = Unix.gettimeofday () in
              let reply = aggregate () in
              let ms = (Unix.gettimeofday () -. t0) *. 1000. in
              (match Domain.join append with
               | P.Ack -> ()
               | _ -> Alcotest.fail "coordinator append failed");
              (match reply with
               | P.Aggregates _ -> ()
               | _ -> Alcotest.fail "expected Aggregates during the append");
              Alcotest.(check bool)
                (Printf.sprintf "aggregate did not wait behind the append (%.0f ms)" ms)
                true (ms < 250.))))

let test_coordinator_shard_down () =
  let module M = Sagma_obs.Metrics in
  let counter name = Option.value ~default:0 (List.assoc_opt name (M.snapshot ()).M.counters) in
  let s0 = Server.create ~shard:(0, 2) () in
  with_handler ~port:7483 (Server.handle_encoded s0) (fun () ->
      (* Nothing listens on :7484 — connection refused, instantly. *)
      let r = Router.create ~deadline_ms:1000 [ "7483"; "7484" ] in
      Fun.protect
        ~finally:(fun () -> Router.shutdown r)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          M.reset ();
          M.set_enabled true;
          let reply =
            Fun.protect
              ~finally:(fun () -> M.set_enabled false)
              (fun () -> Router.handle r (P.Upload { name = "t"; table = enc }))
          in
          (* The failed call to shard 1 is a shard error. No probe ran
             (probing is off), so no probe failure is counted. *)
          Alcotest.(check bool) "failed fan-out call counts in router.shard_errors" true
            (counter "router.shard_errors" > 0);
          Alcotest.(check int) "failed fan-out call is not a probe failure" 0
            (counter "router.probe_failures");
          M.reset ();
          (match reply with
           | P.Failed { message; _ } ->
             Alcotest.(check bool)
               (Printf.sprintf "failure names the dead shard: %s" message)
               true (contains message "shard 1")
           | _ -> Alcotest.fail "upload through a half-dead fleet succeeded");
          Alcotest.(check bool) "refused connection fails fast" true
            (Unix.gettimeofday () -. t0 < 3.));
      (* A shard that accepts (kernel backlog) but never answers must be
         cut off by the per-call deadline, not hang the coordinator. *)
      let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt silent Unix.SO_REUSEADDR true;
      Unix.bind silent (Unix.ADDR_INET (Unix.inet_addr_loopback, 7484));
      Unix.listen silent 1;
      Fun.protect
        ~finally:(fun () -> Unix.close silent)
        (fun () ->
          let r = Router.create ~deadline_ms:500 [ "7483"; "7484" ] in
          Fun.protect
            ~finally:(fun () -> Router.shutdown r)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              (match Router.handle r (P.Upload { name = "t"; table = enc }) with
               | P.Failed { message; _ } ->
                 Alcotest.(check bool)
                   (Printf.sprintf "deadline failure names the silent shard: %s" message)
                   true
                   (contains message "shard 1" && contains message "deadline")
               | _ -> Alcotest.fail "upload through a silent shard succeeded");
              let elapsed = Unix.gettimeofday () -. t0 in
              Alcotest.(check bool)
                (Printf.sprintf "deadline honored (%.0f ms)" (elapsed *. 1000.))
                true
                (elapsed >= 0.4 && elapsed < 5.))))

(* --- fleet health & alerting ------------------------------------------------------ *)

module Wd = Sagma_obs.Watchdog

let sample_alert =
  { Wd.a_rule = "error-rate"; a_since = 1000.5; a_value = 0.75; a_threshold = 0.5;
    a_message = "error-rate: ratio:proto.requests_failed/proto.requests = 0.75 > 0.5" }

let sample_shard_health =
  { P.shc_index = 1; shc_endpoint = "host:7482"; shc_reachable = false; shc_since = 2000.25;
    shc_failures = 3; shc_last_error = "Connection refused"; shc_rtt_ms = 1.75 }

let sample_health_report =
  { P.hr_status = "degraded"; hr_uptime_s = 42.5; hr_alerts = [ sample_alert ];
    hr_shards =
      [ { sample_shard_health with P.shc_index = 0; shc_endpoint = "7481"; shc_reachable = true;
          shc_failures = 0; shc_last_error = "" };
        sample_shard_health ] }

let test_health_roundtrip () =
  (* The Health request and its report round-trip, alerts and shard
     block intact. *)
  (match P.decode_request (P.encode_request P.Health) with
   | P.Health -> ()
   | _ -> Alcotest.fail "Health request lost on the wire");
  (match P.decode_response (P.encode_response (P.Health_report sample_health_report)) with
   | P.Health_report hr ->
     Alcotest.(check bool) "health report survives the wire" true (hr = sample_health_report)
   | _ -> Alcotest.fail "expected Health_report");
  (* The report layout changed with the version byte, so a stale peer
     gets a version mismatch rather than a misparse. *)
  check_other_versions_rejected "Health" P.decode_request (P.encode_request P.Health);
  check_other_versions_rejected "Health_report" P.decode_response
    (P.encode_response (P.Health_report sample_health_report))

let test_stats_report_json () =
  (* The whole report as one JSON object — snapshot, uptime, gc, audit
     and topology — not just the bare snapshot (`sagma stats --json`). *)
  let report =
    { P.sr_snapshot =
        { Sagma_obs.Metrics.counters = [ ("proto.requests", 17) ]; gauges = [ ("pool.queue_depth", 2) ];
          histograms = [] };
      sr_audit = Sagma_obs.Audit.summary (); sr_uptime_s = 12.5; sr_start_time = 99.25;
      sr_gc = Some sample_gc_stats; sr_topology = Some sample_topology }
  in
  let j = Sagma_obs.Json.to_string (P.stats_report_to_json report) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "stats json carries %s" needle) true (contains j needle))
    [ "\"snapshot\":"; "\"proto.requests\":17"; "\"pool.queue_depth\":2"; "\"uptime_s\":12.5";
      "\"start_time\":99.25"; "\"audit\":"; "\"gc\":"; "\"topology\":"; "\"role\":\"shard\"" ];
  (* Without the optional sections the keys stay present but null, so
     consumers need no key-existence probing. *)
  let bare = { report with P.sr_gc = None; sr_topology = None } in
  let j = Sagma_obs.Json.to_string (P.stats_report_to_json bare) in
  Alcotest.(check bool) "absent gc is null" true (contains j "\"gc\":null");
  Alcotest.(check bool) "absent topology is null" true (contains j "\"topology\":null")

let test_health_report_json () =
  let j = Sagma_obs.Json.to_string (P.health_report_to_json sample_health_report) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "health json carries %s" needle) true (contains j needle))
    [ "\"status\":\"degraded\""; "\"uptime_s\":42.5"; "\"rule\":\"error-rate\"";
      "\"endpoint\":\"host:7482\""; "\"reachable\":false"; "\"last_error\":\"Connection refused\"" ]

let test_coordinator_health_probing () =
  let s0 = Server.create ~shard:(0, 2) () in
  let s1 = Server.create ~shard:(1, 2) () in
  let probe_interval_ms = 100 in
  with_handler ~port:7497 (Server.handle_encoded s0) (fun () ->
      let r = Router.create ~deadline_ms:1000 ~probe_interval_ms [ "7497"; "7498" ] in
      let node = Server.create ~fleet:r () in
      let rec wait_for cond what tries =
        if cond () then ()
        else if tries = 0 then Alcotest.fail what
        else begin
          Unix.sleepf 0.05;
          wait_for cond what (tries - 1)
        end
      in
      (* Serve shard 1 until a probe round has seen both shards up, then
         kill its listener; returns how long the prober took to notice. *)
      let kill_shard1 () =
        with_handler ~port:7498 (Server.handle_encoded s1) (fun () ->
            wait_for
              (fun () ->
                List.for_all
                  (fun s -> s.P.shc_reachable && s.P.shc_rtt_ms > 0.)
                  (Router.shard_health r)
                && Router.down_count r = 0)
              "probes never saw both shards up" 100;
            match Server.handle node P.Health with
            | P.Health_report hr ->
              Alcotest.(check string) "healthy fleet is ok" "ok" hr.P.hr_status;
              Alcotest.(check int) "report carries both shards" 2 (List.length hr.P.hr_shards)
            | _ -> Alcotest.fail "expected Health_report");
        let t0 = Unix.gettimeofday () in
        wait_for (fun () -> Router.down_count r >= 1) "prober never noticed the dead shard" 100;
        Unix.gettimeofday () -. t0
      in
      Fun.protect
        ~finally:(fun () -> Router.shutdown r)
        (fun () ->
          Router.start_probes r;
          (* The dead shard is marked down within two probe intervals.
             One retry (a fresh recover-and-kill cycle) damps scheduler
             hiccups on a loaded host. *)
          let gate_s = 2. *. float_of_int probe_interval_ms /. 1000. in
          let detect_s =
            let d = kill_shard1 () in
            if d < gate_s then d else kill_shard1 ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "shard kill detected in %.0f ms, under two probe intervals"
               (detect_s *. 1000.))
            true (detect_s < gate_s);
          (match Server.handle node P.Health with
           | P.Health_report hr ->
             Alcotest.(check string) "half-dead fleet is degraded" "degraded" hr.P.hr_status;
             let sh1 = List.nth hr.P.hr_shards 1 in
             Alcotest.(check bool) "shard 1 reported unreachable" false sh1.P.shc_reachable;
             Alcotest.(check bool) "failure streak recorded" true (sh1.P.shc_failures > 0)
           | _ -> Alcotest.fail "expected Health_report");
          (* Fan-out to the known-down shard fast-fails without waiting
             on a connect. *)
          let t0 = Unix.gettimeofday () in
          (match Router.handle r (P.Upload { name = "t"; table = enc }) with
           | P.Failed { message; _ } ->
             Alcotest.(check bool)
               (Printf.sprintf "fast-fail names the down shard: %s" message)
               true (contains message "shard 1")
           | _ -> Alcotest.fail "upload to a known-down fleet succeeded");
          Alcotest.(check bool) "known-down shard fails fast" true
            (Unix.gettimeofday () -. t0 < 0.5)))

(* Draining turns Health to "draining" and back, in the single-server
   role and in the coordinator role. *)
let test_draining () =
  let status node =
    match Server.handle node P.Health with
    | P.Health_report hr -> hr.P.hr_status
    | _ -> Alcotest.fail "expected Health_report"
  in
  let drain role node =
    Alcotest.(check string) (role ^ " starts ok") "ok" (status node);
    Server.set_draining node true;
    Alcotest.(check string) (role ^ " reads draining") "draining" (status node);
    Server.set_draining node false;
    Alcotest.(check string) (role ^ " is ok again") "ok" (status node)
  in
  drain "single server" (Server.create ());
  (* Shards are presumed up until a call or probe says otherwise, so
     nothing needs to listen on these endpoints. *)
  let r = Router.create [ "7489"; "7490" ] in
  Fun.protect
    ~finally:(fun () -> Router.shutdown r)
    (fun () -> drain "coordinator" (Server.create ~fleet:r ()))

(* A coordinator node answers Stats and Health for the fleet: the
   federated snapshot with per-shard labeled series, the "coordinator"
   topology and the per-shard health block. *)
let test_coordinator_node_stats_health () =
  let module M = Sagma_obs.Metrics in
  let s0 = Server.create ~shard:(0, 2) () in
  let s1 = Server.create ~shard:(1, 2) () in
  M.reset ();
  M.set_enabled true;
  with_handler ~port:7489 (Server.handle_encoded s0) (fun () ->
      with_handler ~port:7490 (Server.handle_encoded s1) (fun () ->
          let r = Router.create [ "7489"; "7490" ] in
          Fun.protect
            ~finally:(fun () ->
              Router.shutdown r;
              M.set_enabled false;
              M.reset ())
            (fun () ->
              (match Server.create ~shard:(0, 2) ~fleet:r () with
               | _ -> Alcotest.fail "a coordinator node accepted ?shard"
               | exception Invalid_argument _ -> ());
              let node = Server.create ~fleet:r () in
              (match Server.handle node (P.Upload { name = "t"; table = enc }) with
               | P.Ack -> ()
               | _ -> Alcotest.fail "upload through the coordinator node failed");
              (match Server.handle node P.Stats with
               | P.Stats_report { P.sr_snapshot; sr_topology; _ } ->
                 (match sr_topology with
                  | Some t ->
                    Alcotest.(check string) "topology role" "coordinator" t.P.tp_role;
                    Alcotest.(check (list string)) "topology endpoints" [ "7489"; "7490" ]
                      t.P.tp_shards
                  | None -> Alcotest.fail "coordinator Stats without a topology");
                 List.iter
                   (fun label ->
                     Alcotest.(check bool)
                       (Printf.sprintf "federated counters carry %s" label)
                       true
                       (List.exists (fun (name, _) -> contains name label) sr_snapshot.M.counters))
                   [ "{shard=\"0\"}"; "{shard=\"1\"}" ]
               | _ -> Alcotest.fail "expected Stats_report");
              match Server.handle node P.Health with
              | P.Health_report hr ->
                Alcotest.(check string) "healthy fleet is ok" "ok" hr.P.hr_status;
                Alcotest.(check int) "one health entry per shard" 2 (List.length hr.P.hr_shards)
              | _ -> Alcotest.fail "expected Health_report")))

let qprop name count gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let props =
  [ qprop "int zig-zag roundtrip" 300 QCheck.int
      (fun v ->
        QCheck.assume (v > min_int);
        W.decode W.get_int (W.encode W.put_int v) = v);
    qprop "bytes roundtrip" 200 QCheck.(string_of_size (QCheck.Gen.int_range 0 200))
      (fun v -> W.decode W.get_bytes (W.encode W.put_bytes v) = v);
    qprop "bigint codec roundtrip" 200 QCheck.(pair bool (string_of_size (QCheck.Gen.int_range 0 30)))
      (fun (neg, raw) ->
        let z = Z.of_bytes_be raw in
        let z = if neg then Z.neg z else z in
        Z.equal z (W.decode Serialize.get_z (W.encode Serialize.put_z z)));
    qprop "value codec roundtrip" 200
      QCheck.(oneof [ map (fun i -> Value.Int i) small_int; map (fun s -> Value.Str s) small_string ])
      (fun v ->
        Value.equal v (W.decode Serialize.get_value (W.encode Serialize.put_value v)));
    qprop "list codec roundtrip" 100 QCheck.(list small_int)
      (fun v ->
        W.decode (fun s -> W.get_list s W.get_int) (W.encode (fun s -> W.put_list s (fun s x -> W.put_int s x)) v)
        = v);
  ]

let () =
  Alcotest.run "protocol"
    [ ( "wire",
        [ Alcotest.test_case "primitives" `Quick test_wire_primitives;
          Alcotest.test_case "errors" `Quick test_wire_errors ] );
      ( "serialize",
        [ Alcotest.test_case "enc_table roundtrip" `Quick test_enc_table_roundtrip;
          Alcotest.test_case "token + aggregate" `Quick test_token_and_aggregate_roundtrip;
          Alcotest.test_case "client persistence" `Quick test_client_persistence;
          Alcotest.test_case "corruption rejected" `Quick test_corrupted_input_rejected ] );
      ( "server",
        [ Alcotest.test_case "handler" `Quick test_server_handler;
          Alcotest.test_case "remote append" `Quick test_server_remote_append;
          Alcotest.test_case "malformed request" `Quick test_malformed_request ] );
      ( "frames",
        [ Alcotest.test_case "version prefix" `Quick test_version_prefix;
          Alcotest.test_case "other versions rejected" `Quick test_other_versions_rejected;
          Alcotest.test_case "server rejects other versions" `Quick
            test_server_rejects_other_versions;
          Alcotest.test_case "error code roundtrip" `Quick test_error_code_roundtrip ] );
      ( "tracing",
        [ Alcotest.test_case "trace context roundtrip" `Quick test_trace_ctx_roundtrip;
          Alcotest.test_case "explain trailer roundtrip" `Quick test_explain_roundtrip;
          Alcotest.test_case "trace dump roundtrip" `Quick test_trace_dump_roundtrip;
          Alcotest.test_case "explain bytes_out exact" `Quick test_explain_bytes_out_exact ] );
      ( "stats and health",
        [ Alcotest.test_case "stats roundtrip" `Quick test_stats_roundtrip;
          Alcotest.test_case "stats via server" `Quick test_stats_via_server;
          Alcotest.test_case "gc telemetry roundtrip" `Quick test_gc_roundtrip;
          Alcotest.test_case "stats report json" `Quick test_stats_report_json;
          Alcotest.test_case "health roundtrip" `Quick test_health_roundtrip;
          Alcotest.test_case "health report json" `Quick test_health_report_json;
          Alcotest.test_case "draining" `Quick test_draining ] );
      ( "sharding",
        [ Alcotest.test_case "topology roundtrip" `Quick test_topology_roundtrip;
          Alcotest.test_case "append row id roundtrip" `Quick test_append_row_id_roundtrip;
          Alcotest.test_case "table name validation" `Quick test_table_name_validation;
          Alcotest.test_case "append posting-count cache" `Quick test_append_posting_count_cached ] );
      ( "coordinator",
        [ Alcotest.test_case "scatter-gather" `Quick test_coordinator_scatter_gather;
          Alcotest.test_case "shard down" `Quick test_coordinator_shard_down;
          Alcotest.test_case "query during append" `Quick test_coordinator_query_during_append;
          Alcotest.test_case "append retry" `Quick test_coordinator_append_retry;
          Alcotest.test_case "health probing" `Quick test_coordinator_health_probing;
          Alcotest.test_case "node stats and health" `Quick test_coordinator_node_stats_health ] );
      ("transport", [ Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip ]);
      ( "concurrency",
        [ Alcotest.test_case "parallel clients" `Quick test_parallel_clients;
          Alcotest.test_case "stalled client isolated" `Quick test_stalled_client_isolated;
          Alcotest.test_case "mid-request disconnect" `Quick test_midrequest_disconnect;
          Alcotest.test_case "max-conns shed -> Busy" `Quick test_max_conns_shed;
          Alcotest.test_case "traced parallel clients" `Quick test_traced_parallel_clients;
          Alcotest.test_case "oversized frame rejected" `Quick test_oversized_frame_rejected ] );
      ("properties", props);
    ]
