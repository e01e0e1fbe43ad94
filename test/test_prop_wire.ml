(* Byte-level fuzzing of the wire layer: roundtrips of the Wire
   primitives and Serialize codecs, then truncation / mutation / garbage
   attacks on encoded protocol frames. The contract under attack:
   decoders raise only [Wire.Decode_error] or [Protocol.Version_mismatch]
   on malformed input, and [Server.handle_encoded] never lets any
   exception escape. *)

module W = Sagma_wire.Wire
module Z = Sagma_bigint.Bigint
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module P = Sagma_protocol.Protocol
module Server = Sagma_protocol.Server
module Gen = Sagma_prop.Gen
module Shrink = Sagma_prop.Shrink
module R = Sagma_prop.Runner
open Sagma

(* A mutated Upload frame carries a mutated BGN modulus; cap the decoder's
   key-size ceiling so no fuzz case can start a large prime search. *)
let () = Serialize.max_pk_bits := 256

(* --- a small but complete corpus of valid frames ----------------------------- *)

let str s = Value.Str s
let vi i = Value.Int i

let schema : Table.schema =
  [ { Table.name = "v"; ty = Value.TInt };
    { Table.name = "g"; ty = Value.TStr };
    { Table.name = "f"; ty = Value.TInt } ]

let table =
  let d = Drbg.create "prop-wire-data" in
  Table.of_rows schema
    (List.init 8 (fun _ ->
         [| vi (Drbg.int_below d 100);
            str [| "x"; "y"; "z" |].(Drbg.int_below d 3);
            vi (Drbg.int_below d 2) |]))

let config =
  Config.make ~bucket_size:2 ~max_group_attrs:1 ~filter_columns:[ "f" ]
    ~value_columns:[ "v" ] ~group_columns:[ "g" ] ()

let client =
  Scheme.setup config
    ~domains:[ ("g", [ str "x"; str "y"; str "z" ]) ]
    (Drbg.create "prop-wire-client")

let enc = Scheme.encrypt_table client table
let token = Scheme.token client (Query.make ~group_by:[ "g" ] (Query.Sum "v"))
let agg = Scheme.aggregate enc token

let append_row, append_keywords =
  Scheme.append_payload client ~values:[| 7 |] ~groups:[| str "y" |] ~filters:[ ("f", vi 1) ]

(* A populated metrics snapshot so the Stats_report frame exercises the
   histogram codec (bucket counts, f64 fields) and a shard entry. *)
let stats_report =
  let module M = Sagma_obs.Metrics in
  M.reset ();
  M.set_enabled true;
  M.add (M.counter "prop.wire") 3;
  M.observe (M.histogram "prop.wire_ms") 1.25;
  M.observe (M.histogram "prop.wire_ms") 40.0;
  M.set_enabled false;
  let snap = M.snapshot () in
  M.reset ();
  { P.sr_snapshot = snap; sr_shards = [ (1, snap) ]; sr_audit = Sagma_obs.Audit.summary ();
    sr_uptime_s = 9.5;
    sr_start_time = 1234.0;
    sr_gc =
      { P.gs_minor_words = 1e6; gs_promoted_words = 2e5; gs_major_words = 3e5;
        gs_minor_collections = 17; gs_major_collections = 4; gs_compactions = 1;
        gs_heap_words = 1 lsl 20; gs_top_heap_words = 1 lsl 21 };
    sr_topology =
      { P.tp_role = "coordinator"; tp_shard_index = -1; tp_shard_count = 2;
        tp_shards = [ "7481"; "host:7482" ] } }

(* A health report exercising every codec branch: an alert list, a
   mixed up/down shard block, empty and non-empty strings. *)
let health_report =
  { P.hr_status = "degraded"; hr_uptime_s = 33.25;
    hr_alerts =
      [ { Sagma_obs.Watchdog.a_rule = "error-rate"; a_since = 500.5; a_value = 0.8;
          a_threshold = 0.5; a_message = "error-rate breached" } ];
    hr_shards =
      [ { P.shc_index = 0; shc_endpoint = "7481"; shc_reachable = true; shc_since = 400.0;
          shc_failures = 0; shc_last_error = ""; shc_rtt_ms = 0.5 };
        { P.shc_index = 1; shc_endpoint = "host:7482"; shc_reachable = false;
          shc_since = 450.75; shc_failures = 4; shc_last_error = "Connection refused";
          shc_rtt_ms = 2.25 } ] }

let request_corpus =
  List.map P.encode_request
    [ P.Upload { name = "t"; table = enc };
      P.Aggregate { name = "t"; token };
      P.Append { name = "t"; row = append_row; keywords = append_keywords; row_id = None };
      (* The coordinator-stamped row id. *)
      P.Append { name = "t"; row = append_row; keywords = append_keywords; row_id = Some 8 };
      P.List_tables;
      P.Drop "t";
      P.Stats;
      P.Health ]

let response_corpus =
  List.map P.encode_response
    [ P.Ack;
      P.Tables [ ("t", 8); ("u", 0) ];
      P.Aggregates agg;
      P.Failed { code = P.No_such_table; message = "no such table" };
      P.Stats_report stats_report;
      P.Health_report health_report ]

let corpus = request_corpus @ response_corpus

(* Decoders matching each corpus frame, index-aligned. *)
let decoder_of i : string -> unit =
  if i < List.length request_corpus then fun s -> ignore (P.decode_request s)
  else fun s -> ignore (P.decode_response s)

(* --- primitive roundtrips ----------------------------------------------------- *)

let t_int_rt = R.test ~count:300 ~name:"put_int/get_int roundtrip"
    (R.arbitrary ~shrink:Shrink.int ~print:string_of_int
       (Gen.int_edgy (min_int + 1) max_int))
    (fun x -> W.decode W.get_int (W.encode W.put_int x) = x)

let t_u62_rt = R.test ~count:300 ~name:"put_u62/get_u62 roundtrip"
    (R.arbitrary ~shrink:Shrink.int ~print:string_of_int (Gen.int_edgy 0 max_int))
    (fun x -> W.decode W.get_u62 (W.encode W.put_u62 x) = x)

let t_u32_rt = R.test ~count:300 ~name:"put_u32/get_u32 roundtrip"
    (R.arbitrary ~shrink:Shrink.int ~print:string_of_int (Gen.int_edgy 0 0xFFFF_FFFF))
    (fun x -> W.decode W.get_u32 (W.encode W.put_u32 x) = x)

let t_bytes_rt = R.test ~count:300 ~name:"put_bytes/get_bytes roundtrip"
    (R.arbitrary ~shrink:Shrink.string ~print:String.escaped (Gen.bytes ()))
    (fun s -> W.decode W.get_bytes (W.encode W.put_bytes s) = s)

let t_compound_rt = R.test ~count:200 ~name:"list/option/pair roundtrip"
    (R.arbitrary
       ~shrink:(Shrink.pair (Shrink.list ~shrink_elt:Shrink.int ()) (Shrink.option Shrink.string))
       ~print:(fun (l, o) ->
         Printf.sprintf "([%s], %s)"
           (String.concat "; " (List.map string_of_int l))
           (match o with None -> "None" | Some s -> "Some " ^ String.escaped s))
       (Gen.pair (Gen.list ~max_len:20 (Gen.int_edgy (-1000) 1000))
          (Gen.oneof [ Gen.return None; Gen.map (fun s -> Some s) (Gen.bytes ()) ])))
    (fun (l, o) ->
      let put s (l, o) =
        W.put_pair s (fun s -> W.put_list s (fun s v -> W.put_int s v))
          (fun s -> W.put_option s W.put_bytes) (l, o)
      in
      let get s =
        W.get_pair s (fun s -> W.get_list s W.get_int) (fun s -> W.get_option s W.get_bytes)
      in
      W.decode get (W.encode put (l, o)) = (l, o))

let t_count_guard = R.test ~count:200 ~name:"get_count rejects oversized counts"
    (R.arbitrary
       ~print:(fun (n, extra) -> Printf.sprintf "count=%d extra=%d" n extra)
       (Gen.pair (Gen.int_edgy 1 0xFFFF_FFFF) (Gen.int_range 0 32)))
    (fun (n, extra) ->
      if extra >= n then raise R.Discard;
      let s = W.sink () in
      W.put_u32 s n;
      for _ = 1 to extra do W.put_u8 s 0 done;
      match W.decode (fun src -> W.get_list src W.get_u8) (W.contents s) with
      | _ -> false
      | exception W.Decode_error _ -> true)

let t_z_rt = R.test ~count:300 ~name:"put_z/get_z roundtrip"
    (R.arbitrary ~shrink:Shrink.bigint ~print:Z.to_string (Gen.bigint_signed ()))
    (fun z -> Z.equal (W.decode Serialize.get_z (W.encode Serialize.put_z z)) z)

let t_value_rt = R.test ~count:300 ~name:"put_value/get_value roundtrip"
    (R.arbitrary ~print:Value.to_string
       (Gen.oneof
          [ Gen.map (fun i -> Value.Int i) (Gen.int_edgy (-1000000) 1000000);
            Gen.map (fun s -> Value.Str s) (Gen.bytes ()) ]))
    (fun v -> Value.equal (W.decode Serialize.get_value (W.encode Serialize.put_value v)) v)

(* --- canonical encodings: decode then re-encode is byte-identical ------------- *)

let t_request_canonical = R.test ~count:40 ~name:"request encoding canonical"
    (R.arbitrary ~print:String.escaped (Gen.oneofl request_corpus))
    (fun frame -> P.encode_request (P.decode_request frame) = frame)

let t_response_canonical = R.test ~count:40 ~name:"response encoding canonical"
    (R.arbitrary ~print:String.escaped (Gen.oneofl response_corpus))
    (fun frame -> P.encode_response (P.decode_response frame) = frame)

(* --- histograms on the wire ----------------------------------------------------- *)

module M = Sagma_obs.Metrics

(* A registry histogram over [obs] (nonempty), as a node snapshots it. *)
let hist_of (obs : float list) : M.hist_stats =
  M.reset ();
  M.set_enabled true;
  List.iter (M.observe (M.histogram "prop.quantile_ms")) obs;
  M.set_enabled false;
  let h = List.assoc "prop.quantile_ms" (M.snapshot ()).M.histograms in
  M.reset ();
  h

let stats_with (h : M.hist_stats) : string =
  let snap = { M.counters = []; gauges = []; histograms = [ ("h", h) ] } in
  P.encode_response
    (P.Stats_report { stats_report with P.sr_snapshot = snap; sr_shards = [ (0, snap) ] })

(* Observations spread over the whole grid, overflow slot included. *)
let observation = Gen.map (fun k -> 0.0005 *. (2. ** (float_of_int k /. 3.))) (Gen.int_range 0 110)

let t_hist_quantile_rt = R.test ~count:100 ~name:"stats histogram roundtrip keeps quantiles"
    (R.arbitrary
       ~print:(fun l -> String.concat " " (List.map string_of_float l))
       (Gen.map2 (fun x xs -> x :: xs) observation (Gen.list ~max_len:30 observation)))
    (fun obs ->
      let h = hist_of obs in
      match P.decode_response (stats_with h) with
      | P.Stats_report { P.sr_snapshot; sr_shards = [ (0, shard) ]; _ } ->
        List.for_all
          (fun (snap : M.snapshot) ->
            let h' = List.assoc "h" snap.M.histograms in
            h' = h && List.for_all (fun q -> M.quantile h' q = M.quantile h q) [ 0.5; 0.95; 0.99 ])
          [ sr_snapshot; shard ]
      | _ -> false)

(* The count array comes from the network: any length but the grid's
   (31 bounds plus the overflow slot) is a malformed frame. *)
let t_hist_length_checked = R.test ~count:40 ~name:"stats histogram count length checked"
    (R.arbitrary ~print:string_of_int (Gen.oneof [ Gen.oneofl [ 31; 33 ]; Gen.int_range 0 64 ]))
    (fun n ->
      if n = Array.length M.bucket_bounds + 1 then raise R.Discard;
      let h = { M.h_count = 1; h_sum = 1.; h_min = 1.; h_max = 1.; h_counts = Array.make n 0 } in
      match P.decode_response (stats_with h) with
      | _ -> false
      | exception W.Decode_error _ -> true)

(* --- adversarial inputs ------------------------------------------------------- *)

let well_behaved (decode : string -> unit) (s : string) : bool =
  match decode s with
  | () -> true
  | exception W.Decode_error _ -> true
  | exception P.Version_mismatch _ -> true
  | exception e ->
      Printf.printf "    escaped exception: %s\n" (Printexc.to_string e);
      false

let frame_pick : (int * string) Gen.t =
  Gen.bind (Gen.int_below (List.length corpus)) (fun i ->
      Gen.return (i, List.nth corpus i))

let t_truncation = R.test ~count:150 ~name:"truncated frames fail cleanly"
    (R.arbitrary
       ~print:(fun (i, cut) -> Printf.sprintf "frame %d cut at %d" i cut)
       (Gen.bind frame_pick (fun (i, frame) ->
            Gen.map (fun cut -> (i, cut)) (Gen.int_below (String.length frame)))))
    (fun (i, cut) ->
      let frame = List.nth corpus i in
      let prefix = String.sub frame 0 cut in
      match decoder_of i prefix with
      | () -> false (* a strict prefix of a canonical frame cannot decode *)
      | exception W.Decode_error _ -> true
      | exception P.Version_mismatch _ -> true
      | exception e ->
          Printf.printf "    escaped exception: %s\n" (Printexc.to_string e);
          false)

let mutated_gen : (int * string) Gen.t =
 fun d ->
  let i, frame = frame_pick d in
  let b = Bytes.of_string frame in
  let hits = Gen.int_range 1 4 d in
  for _ = 1 to hits do
    Bytes.set b (Gen.int_below (Bytes.length b) d) (Char.chr (Gen.int_below 256 d))
  done;
  (i, Bytes.to_string b)

let t_mutation = R.test ~count:250 ~name:"mutated frames fail cleanly"
    (R.arbitrary
       ~print:(fun (i, s) -> Printf.sprintf "frame %d mutated to %s" i (String.escaped s))
       mutated_gen)
    (fun (i, s) -> well_behaved (decoder_of i) s)

let t_garbage = R.test ~count:300 ~name:"garbage never crashes the decoders"
    (R.arbitrary ~shrink:Shrink.string ~print:String.escaped (Gen.bytes ~max_len:200 ()))
    (fun s ->
      well_behaved (fun s -> ignore (P.decode_request s)) s
      && well_behaved (fun s -> ignore (P.decode_response s)) s)

(* --- the server absorbs anything ---------------------------------------------- *)

let server =
  let t = Server.create () in
  (match Server.handle t (P.Upload { name = "t"; table = enc }) with
  | P.Ack -> ()
  | _ -> failwith "upload failed");
  t

let server_absorbs (s : string) : bool =
  match Server.handle_encoded server s with
  | reply -> (
      match P.decode_response reply with
      | _ -> true
      | exception e ->
          Printf.printf "    undecodable reply: %s\n" (Printexc.to_string e);
          false)
  | exception e ->
      Printf.printf "    handle_encoded raised: %s\n" (Printexc.to_string e);
      false

let t_server_valid = R.test ~count:30 ~name:"server answers every valid request"
    (R.arbitrary ~print:String.escaped (Gen.oneofl request_corpus))
    server_absorbs

(* Any version byte but the current one, on any corpus frame: the
   decoders raise the typed mismatch, and the server answers
   [Failed Version_unsupported] framed at its own version. *)
let t_other_version = R.test ~count:150 ~name:"other version bytes rejected"
    (R.arbitrary
       ~print:(fun (i, b) -> Printf.sprintf "frame %d with version byte %d" i b)
       (Gen.pair (Gen.int_below (List.length corpus)) (Gen.int_below 256)))
    (fun (i, b) ->
      if b = P.version then raise R.Discard;
      let frame = String.mapi (fun k c -> if k = 2 then Char.chr b else c) (List.nth corpus i) in
      (match decoder_of i frame with
       | () -> false
       | exception P.Version_mismatch { expected; got } -> expected = P.version && got = b
       | exception _ -> false)
      &&
      let reply = Server.handle_encoded server frame in
      Char.code reply.[2] = P.version
      &&
      match P.decode_response reply with
      | P.Failed { code = P.Version_unsupported; _ } -> true
      | _ -> false)

let t_server_mutated = R.test ~count:200 ~name:"server absorbs mutated requests"
    (R.arbitrary
       ~print:(fun (i, s) -> Printf.sprintf "frame %d mutated to %s" i (String.escaped s))
       (Gen.bind (Gen.int_below (List.length request_corpus)) (fun i ->
            fun d ->
             let frame = List.nth request_corpus i in
             let b = Bytes.of_string frame in
             let hits = Gen.int_range 1 4 d in
             for _ = 1 to hits do
               Bytes.set b (Gen.int_below (Bytes.length b) d) (Char.chr (Gen.int_below 256 d))
             done;
             (i, Bytes.to_string b))))
    (fun (_, s) -> server_absorbs s)

let t_server_garbage = R.test ~count:200 ~name:"server absorbs garbage"
    (R.arbitrary ~shrink:Shrink.string ~print:String.escaped (Gen.bytes ~max_len:200 ()))
    server_absorbs

let () =
  R.run ~suite:"test_prop_wire"
    [ t_int_rt; t_u62_rt; t_u32_rt; t_bytes_rt; t_compound_rt; t_count_guard; t_z_rt;
      t_value_rt; t_request_canonical; t_response_canonical; t_hist_quantile_rt;
      t_hist_length_checked; t_truncation; t_mutation;
      t_garbage; t_server_valid; t_other_version; t_server_mutated; t_server_garbage ]
