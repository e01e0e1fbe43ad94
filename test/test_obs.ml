(* Tests for the observability subsystem (Sagma_obs): metrics are free
   when disabled, counters match the analytic cost model of §3.4
   (pairings per row × block × channel), spans nest per query phase, and
   the request audit flags a server that strays from the declared
   leakage. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Executor = Sagma_db.Executor
module Metrics = Sagma_obs.Metrics
module Trace = Sagma_obs.Trace
module Prof = Sagma_obs.Prof
module Export = Sagma_obs.Export
module Log = Sagma_obs.Log
module Json = Sagma_obs.Json
module Audit = Sagma_obs.Audit
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

(* Every test leaves the registry the way it found it: disabled, zeroed. *)
(* The named count [name] of a request trace, 0 when absent. *)
let count (rt : Trace.rtrace) (name : string) : int =
  Option.value ~default:0 (List.assoc_opt name rt.Trace.r_counts)

let with_metrics ?(enabled = true) f =
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.reset ())
    (fun () ->
      Metrics.reset ();
      Trace.reset ();
      Metrics.set_enabled enabled;
      f ())

(* --- metrics registry ----------------------------------------------------- *)

let test_disabled_by_default () =
  Alcotest.(check bool) "collection starts off" false !Metrics.enabled;
  let c = Metrics.counter "test.off" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr/add are no-ops when off" 0 (Metrics.value c);
  let h = Metrics.histogram "test.off_hist" in
  Metrics.observe h 3.0;
  let s = Metrics.snapshot () in
  Alcotest.(check bool)
    "histogram untouched when off" false
    (List.mem_assoc "test.off_hist" s.Metrics.histograms)

let test_counter_basics () =
  with_metrics @@ fun () ->
  let c = Metrics.counter "test.basics" in
  Metrics.incr c;
  Metrics.add c 9;
  Alcotest.(check int) "incr + add" 10 (Metrics.value c);
  (* registration is idempotent: same name, same cell *)
  let c' = Metrics.counter "test.basics" in
  Metrics.incr c';
  Alcotest.(check int) "same cell under one name" 11 (Metrics.value c);
  let s = Metrics.snapshot () in
  Alcotest.(check (option int))
    "snapshot carries the count" (Some 11)
    (List.assoc_opt "test.basics" s.Metrics.counters);
  Alcotest.(check bool)
    "zero counters are filtered out" false
    (List.mem_assoc "test.off" s.Metrics.counters);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value c)

let test_gauge_basics () =
  let g = Metrics.gauge "test.gauge" in
  Metrics.gauge_set g 5;
  Alcotest.(check int) "set is a no-op when off" 0 (Metrics.gauge_value g);
  with_metrics @@ fun () ->
  Metrics.gauge_set g 5;
  Metrics.gauge_add g 3;
  Metrics.gauge_incr g;
  Metrics.gauge_decr g;
  Alcotest.(check int) "set/add/incr/decr" 8 (Metrics.gauge_value g);
  (* registration is idempotent: same name, same cell *)
  Metrics.gauge_incr (Metrics.gauge "test.gauge");
  Alcotest.(check int) "same cell under one name" 9 (Metrics.gauge_value g);
  let zero = Metrics.gauge "test.gauge_zero" in
  Metrics.gauge_incr zero;
  Metrics.gauge_decr zero;
  let untouched = Metrics.gauge "test.gauge_untouched" in
  ignore untouched;
  let s = Metrics.snapshot () in
  Alcotest.(check (option int)) "snapshot carries the level" (Some 9)
    (List.assoc_opt "test.gauge" s.Metrics.gauges);
  (* A gauge that moved and came back to 0 is a meaningful reading —
     unlike counters, zero is not filtered once touched. *)
  Alcotest.(check (option int)) "touched zero gauge included" (Some 0)
    (List.assoc_opt "test.gauge_zero" s.Metrics.gauges);
  Alcotest.(check bool) "untouched gauge excluded" false
    (List.mem_assoc "test.gauge_untouched" s.Metrics.gauges);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes the level" 0 (Metrics.gauge_value g);
  Alcotest.(check bool) "reset forgets touched gauges" true
    ((Metrics.snapshot ()).Metrics.gauges = [])

let test_histogram_stats () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test.hist" in
  Metrics.observe h 1.0;
  Metrics.observe h 3.0;
  let s = Metrics.snapshot () in
  let st = List.assoc "test.hist" s.Metrics.histograms in
  Alcotest.(check int) "count" 2 st.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "sum" 4.0 st.Metrics.h_sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 st.Metrics.h_min;
  Alcotest.(check (float 1e-9)) "max" 3.0 st.Metrics.h_max

let test_observe_ms () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test.timed" in
  Alcotest.(check int) "return value passes through" 7 (Metrics.observe_ms h (fun () -> 7));
  let st = List.assoc "test.timed" (Metrics.snapshot ()).Metrics.histograms in
  Alcotest.(check int) "one observation" 1 st.Metrics.h_count;
  Alcotest.(check bool) "non-negative duration" true (st.Metrics.h_min >= 0.0)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* A strict recognizer for the JSON grammar (RFC 8259), enough to tell
   whether an emitter's output parses. *)
let is_json (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail () = raise Exit in
  let ws () =
    while (match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false) do
      incr pos
    done
  in
  let eat c = if peek () = Some c then incr pos else fail () in
  let lit w = String.iter eat w in
  let digits () =
    let start = !pos in
    while (match peek () with Some '0' .. '9' -> true | _ -> false) do incr pos done;
    if !pos = start then fail ()
  in
  let str () =
    eat '"';
    let rec go () =
      match peek () with
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
         | Some 'u' ->
           incr pos;
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> incr pos
             | _ -> fail ()
           done
         | _ -> fail ());
        go ()
      | Some c when Char.code c >= 0x20 -> incr pos; go ()
      | _ -> fail ()
    in
    go ()
  in
  let rec value () =
    ws ();
    (match peek () with
     | Some '{' -> incr pos; members '}' (fun () -> ws (); str (); ws (); eat ':'; value ())
     | Some '[' -> incr pos; members ']' value
     | Some '"' -> str ()
     | Some 't' -> lit "true"
     | Some 'f' -> lit "false"
     | Some 'n' -> lit "null"
     | _ ->
       if peek () = Some '-' then incr pos;
       digits ();
       if peek () = Some '.' then (incr pos; digits ());
       if peek () = Some 'e' || peek () = Some 'E' then begin
         incr pos;
         if peek () = Some '+' || peek () = Some '-' then incr pos;
         digits ()
       end);
    ws ()
  and members close item =
    ws ();
    if peek () = Some close then incr pos
    else begin
      item ();
      while peek () = Some ',' do incr pos; item () done;
      eat close
    end
  in
  match value () with () -> !pos = n | exception Exit -> false

let test_snapshot_json () =
  with_metrics @@ fun () ->
  Metrics.add (Metrics.counter "test.json") 5;
  Metrics.observe (Metrics.histogram "test.json_hist") 2.0;
  let snap = Metrics.snapshot () in
  let j = Json.to_string (Metrics.snapshot_to_json snap) in
  Alcotest.(check bool) "counter in JSON" true (contains j "\"test.json\":5");
  Alcotest.(check bool) "histogram in JSON" true (contains j "\"test.json_hist\"");
  Alcotest.(check bool) "snapshot parses as JSON" true (is_json j);
  (* A snapshot that arrived over the wire can carry an empty histogram:
     its mean is 0/0 and its extremes infinite, none of them JSON
     numbers. *)
  let empty =
    { Metrics.h_count = 0; h_sum = 0.; h_min = infinity; h_max = neg_infinity; h_counts = [||] }
  in
  let j =
    Json.to_string (Metrics.snapshot_to_json { snap with Metrics.histograms = [ ("test.empty", empty) ] })
  in
  Alcotest.(check bool) (Printf.sprintf "empty histogram parses as JSON: %s" j) true (is_json j);
  Alcotest.(check bool) "empty mean is null" true (contains j "\"mean\":null")

(* Random trees over every byte value and every non-finite float: the
   writer's output must always be JSON. *)
let test_json_writer () =
  Alcotest.(check string) "escaping" "\"a\\\"b\\\\c\\n\\u0001\""
    (Json.to_string (Str "a\"b\\c\n\001"));
  Alcotest.(check bool) "recognizer rejects OCaml escapes" false (is_json "\"caf\\195\"");
  let st = Random.State.make [| 19 |] in
  let bytes () = String.init (Random.State.int st 6) (fun _ -> Char.chr (Random.State.int st 256)) in
  let nums = [| nan; infinity; neg_infinity; -0.; 0.1; 1e300; 5e-324; 1e15; -42. |] in
  let rec gen depth : Json.t =
    match Random.State.int st (if depth = 0 then 4 else 6) with
    | 0 -> Null
    | 1 -> Bool (Random.State.bool st)
    | 2 -> Num nums.(Random.State.int st (Array.length nums))
    | 3 -> Str (bytes ())
    | 4 -> Arr (List.init (Random.State.int st 4) (fun _ -> gen (depth - 1)))
    | _ -> Obj (List.init (Random.State.int st 4) (fun _ -> (bytes (), gen (depth - 1))))
  in
  for _ = 1 to 2000 do
    let j = Json.to_string (gen 3) in
    if not (is_json j) then Alcotest.failf "writer output is not JSON: %S" j
  done

let test_gauge_export () =
  with_metrics @@ fun () ->
  Metrics.gauge_set (Metrics.gauge "proto.inflight") 4;
  let s = Metrics.snapshot () in
  let j = Json.to_string (Metrics.snapshot_to_json s) in
  Alcotest.(check bool) "gauge in JSON" true (contains j "\"gauges\":{\"proto.inflight\":4}");
  let text = Export.prometheus s in
  Alcotest.(check bool) "gauge TYPE" true
    (contains text "# TYPE sagma_proto_inflight gauge");
  Alcotest.(check bool) "gauge sample" true (contains text "sagma_proto_inflight 4")

let test_bucket_boundaries () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test.bounds" in
  (* Grid is 0.001·2^i: first bound 0.001, second 0.002. Bounds are
     inclusive upper limits, so 0.001 itself lands in the first slot. *)
  Metrics.observe h 0.0005;
  Metrics.observe h 0.001;
  Metrics.observe h 0.0011;
  Metrics.observe h 1e12 (* beyond the last bound: +∞ overflow slot *);
  let st = List.assoc "test.bounds" (Metrics.snapshot ()).Metrics.histograms in
  let n = Array.length st.Metrics.h_counts in
  Alcotest.(check int) "one slot per bound plus +inf"
    (Array.length Metrics.bucket_bounds + 1) n;
  (* The snapshot holds raw counts; the exposition's cumulative buckets
     are their running sums. *)
  let cum = Array.make n 0 in
  Array.iteri (fun i c -> cum.(i) <- c + if i = 0 then 0 else cum.(i - 1)) st.Metrics.h_counts;
  Alcotest.(check (float 1e-12)) "first bound" 0.001 Metrics.bucket_bounds.(0);
  Alcotest.(check int) "bounds are inclusive" 2 cum.(0);
  Alcotest.(check (float 1e-12)) "bounds double" 0.002 Metrics.bucket_bounds.(1);
  Alcotest.(check int) "cumulative counts" 3 cum.(1);
  Alcotest.(check int) "last slot is the +inf overflow" 1 st.Metrics.h_counts.(n - 1);
  Alcotest.(check int) "+inf sees everything" 4 cum.(n - 1);
  Array.iter
    (fun c -> Alcotest.(check bool) "raw counts nonnegative" true (c >= 0))
    st.Metrics.h_counts

let test_quantiles () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "test.quant" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  let st = List.assoc "test.quant" (Metrics.snapshot ()).Metrics.histograms in
  let p50 = Metrics.quantile st 0.50 and p95 = Metrics.quantile st 0.95
  and p99 = Metrics.quantile st 0.99 in
  Alcotest.(check bool) "quantiles ordered" true
    (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "quantiles inside [min, max]" true
    (p50 >= st.Metrics.h_min && p99 <= st.Metrics.h_max);
  (* Uniform 1..100: the median interpolates inside the (32.768, 65.536]
     bucket, so the estimate stays within one bucket of the true 50. *)
  Alcotest.(check bool) "p50 near true median" true
    (p50 > 32.0 && p50 <= 66.0);
  (* p95's bucket reaches past the max, so the clamp kicks in. *)
  Alcotest.(check (float 1e-9)) "p95 clamped to max" 100.0 p95;
  (* Degenerate distribution: every quantile is the single value. *)
  let h1 = Metrics.histogram "test.quant_one" in
  Metrics.observe h1 5.0;
  let st1 = List.assoc "test.quant_one" (Metrics.snapshot ()).Metrics.histograms in
  Alcotest.(check (float 1e-9)) "single obs p50" 5.0 (Metrics.quantile st1 0.50);
  Alcotest.(check (float 1e-9)) "single obs p99" 5.0 (Metrics.quantile st1 0.99)

let test_prometheus_exposition () =
  with_metrics @@ fun () ->
  Metrics.add (Metrics.counter "proto.requests") 3;
  let h = Metrics.histogram "proto.request_ms" in
  Metrics.observe h 0.5;
  Metrics.observe h 1.5;
  let text = Export.prometheus (Metrics.snapshot ()) in
  Alcotest.(check string) "name sanitization" "sagma_proto_request_ms"
    (Export.metric_name "proto.request_ms");
  Alcotest.(check bool) "counter sample" true (contains text "sagma_proto_requests_total 3");
  Alcotest.(check bool) "counter TYPE" true
    (contains text "# TYPE sagma_proto_requests_total counter");
  Alcotest.(check bool) "histogram TYPE" true
    (contains text "# TYPE sagma_proto_request_ms histogram");
  Alcotest.(check bool) "+Inf bucket closes the family" true
    (contains text "sagma_proto_request_ms_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "sum" true (contains text "sagma_proto_request_ms_sum 2");
  Alcotest.(check bool) "count" true (contains text "sagma_proto_request_ms_count 2");
  Alcotest.(check bool) "p50 gauge" true (contains text "sagma_proto_request_ms_p50 ");
  Alcotest.(check bool) "p99 gauge" true (contains text "sagma_proto_request_ms_p99 ");
  (* Shape: every non-comment line is "name value" or "name{labels} value". *)
  List.iter
    (fun l ->
      if l <> "" && l.[0] <> '#' then
        match String.split_on_char ' ' l with
        | [ _name; _value ] -> ()
        | _ -> Alcotest.failf "malformed exposition line %S" l)
    (String.split_on_char '\n' text)

(* --- label escaping & federated exposition (PR 10) --------------------------- *)

let test_label_escaping () =
  Alcotest.(check string) "backslash" "a\\\\b" (Export.escape_label_value "a\\b");
  Alcotest.(check string) "double quote" "a\\\"b" (Export.escape_label_value "a\"b");
  Alcotest.(check string) "newline" "a\\nb" (Export.escape_label_value "a\nb");
  Alcotest.(check string) "benign passes through" "host:7482" (Export.escape_label_value "host:7482");
  Alcotest.(check string) "no labels, no block" "router.shard_up" (Export.labeled "router.shard_up" []);
  Alcotest.(check string) "labeled builds the block"
    "proto.requests{shard=\"1\"}"
    (Export.labeled "proto.requests" [ ("shard", "1") ]);
  (* A hostile endpoint string — quotes, backslashes, a newline that
     would otherwise inject a fake sample line — stays one escaped label
     value. *)
  let hostile = "shard\"0\"\\host\nname" in
  let name = Export.labeled "router.shard_up" [ ("endpoint", hostile) ] in
  Alcotest.(check string) "hostile endpoint escaped"
    "router.shard_up{endpoint=\"shard\\\"0\\\"\\\\host\\nname\"}" name;
  Alcotest.(check bool) "no raw newline survives" false (String.contains name '\n');
  (* Rendered, the series is still a single well-formed line. *)
  let text = Export.prometheus { Metrics.counters = []; gauges = [ (name, 1) ]; histograms = [] } in
  Alcotest.(check bool) "exposition keeps the escaped block" true
    (contains text "sagma_router_shard_up{endpoint=\"shard\\\"0\\\"\\\\host\\nname\"} 1");
  (* Label *keys* are sanitized like metric names (an attacker-chosen
     key cannot break out of the block either). *)
  Alcotest.(check string) "label key sanitized" "m{bad_key=\"v\"}"
    (Export.labeled "m" [ ("bad key", "v") ])

let test_labeled_exposition () =
  with_metrics @@ fun () ->
  (* The fleet aggregate and two shards' own snapshots, as a
     coordinator's Stats reply carries them. *)
  let snapshot_of f =
    Metrics.reset ();
    f ();
    Metrics.snapshot ()
  in
  let fleet = snapshot_of (fun () -> Metrics.add (Metrics.counter "proto.requests") 10) in
  let shard0 =
    snapshot_of (fun () ->
        Metrics.add (Metrics.counter "proto.requests") 4;
        Metrics.observe (Metrics.histogram "proto.request_ms") 1.0)
  in
  let shard1 = snapshot_of (fun () -> Metrics.add (Metrics.counter "proto.requests") 6) in
  let text = Export.prometheus ~shards:[ (0, shard0); (1, shard1) ] fleet in
  Alcotest.(check bool) "fleet aggregate unlabeled" true
    (contains text "sagma_proto_requests_total 10");
  Alcotest.(check bool) "shard 0 labeled sample" true
    (contains text "sagma_proto_requests_total{shard=\"0\"} 4");
  Alcotest.(check bool) "shard 1 labeled sample" true
    (contains text "sagma_proto_requests_total{shard=\"1\"} 6");
  (* One TYPE header per family, not per labeled series — a duplicate
     TYPE line is a parse error for a real scraper. *)
  let occurrences needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i acc =
      if i + nl > hl then acc
      else go (i + 1) (if String.sub text i nl = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "counter TYPE emitted once" 1
    (occurrences "# TYPE sagma_proto_requests_total counter");
  (* The histogram's `le` merges into the series' own label block. *)
  Alcotest.(check bool) "bucket merges le into the block" true
    (contains text "sagma_proto_request_ms_bucket{shard=\"0\",le=\"+Inf\"} 1");
  Alcotest.(check bool) "labeled sum" true (contains text "sagma_proto_request_ms_sum{shard=\"0\"} 1")

let test_merge_hist_stats () =
  with_metrics @@ fun () ->
  let h = Metrics.histogram "merge.ms" in
  Metrics.observe h 1.0;
  Metrics.observe h 2.0;
  let s1 = List.assoc "merge.ms" (Metrics.snapshot ()).Metrics.histograms in
  Metrics.reset ();
  Metrics.observe (Metrics.histogram "merge.ms") 100.0;
  let s2 = List.assoc "merge.ms" (Metrics.snapshot ()).Metrics.histograms in
  let m = Metrics.merge_hist_stats s1 s2 in
  Alcotest.(check int) "counts add" 3 m.Metrics.h_count;
  Alcotest.(check (float 1e-9)) "sums add" 103.0 m.Metrics.h_sum;
  Alcotest.(check (float 1e-9)) "min widens" 1.0 m.Metrics.h_min;
  Alcotest.(check (float 1e-9)) "max widens" 100.0 m.Metrics.h_max;
  (* The +Inf bucket of the merge carries every observation. *)
  let inf_cum = Array.fold_left ( + ) 0 m.Metrics.h_counts in
  Alcotest.(check int) "+Inf cumulative is the total" 3 inf_cum;
  (* Quantiles are estimated from the merged buckets: the p99 must land
     near the 100ms outlier, not near the 2ms side. *)
  let p99 = Metrics.quantile m 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "merged p99 tracks the slow node (%.3f)" p99)
    true (p99 > 50.0);
  (* Merging with an empty histogram is the identity. *)
  Metrics.reset ();
  ignore (Metrics.histogram "merge.ms");
  let empty =
    match List.assoc_opt "merge.ms" (Metrics.snapshot ()).Metrics.histograms with
    | Some e -> e
    | None ->
      { Metrics.h_count = 0; h_sum = 0.; h_min = 0.; h_max = 0.; h_counts = [||] }
  in
  Alcotest.(check bool) "empty is the identity" true (Metrics.merge_hist_stats s1 empty = s1)

let test_merge_snapshots () =
  let s1 =
    { Metrics.counters = [ ("a", 1); ("b", 2) ]; gauges = [ ("g", 5) ]; histograms = [] }
  in
  let s2 =
    { Metrics.counters = [ ("b", 3); ("c", 4) ]; gauges = [ ("g", 7); ("h", 1) ]; histograms = [] }
  in
  let m = Metrics.merge_snapshots s1 s2 in
  Alcotest.(check (list (pair string int))) "counters sum pointwise"
    [ ("a", 1); ("b", 5); ("c", 4) ] m.Metrics.counters;
  Alcotest.(check (list (pair string int))) "gauges sum pointwise"
    [ ("g", 12); ("h", 1) ] m.Metrics.gauges

(* --- SLO watchdog ------------------------------------------------------------ *)

module Watchdog = Sagma_obs.Watchdog

let empty_snap = { Metrics.counters = []; gauges = []; histograms = [] }

let test_watchdog_fire_resolve () =
  let rule =
    { Watchdog.r_name = "qd"; r_source = Watchdog.Gauge "pool.queue_depth"; r_threshold = 10. }
  in
  let wd = Watchdog.create ~rules:[ rule ] () in
  let snap depth = { empty_snap with Metrics.gauges = [ ("pool.queue_depth", depth) ] } in
  Watchdog.poll ~now:100. wd ~snapshot:(snap 5) ~shards_down:0;
  Alcotest.(check int) "below threshold: quiet" 0 (Watchdog.firing_count wd);
  Watchdog.poll ~now:101. wd ~snapshot:(snap 20) ~shards_down:0;
  (match Watchdog.active wd with
   | [ a ] ->
     Alcotest.(check string) "alert names the rule" "qd" a.Watchdog.a_rule;
     Alcotest.(check (float 1e-9)) "since stamps the firing edge" 101. a.Watchdog.a_since;
     Alcotest.(check (float 1e-9)) "value recorded" 20. a.Watchdog.a_value;
     Alcotest.(check bool) "message readable" true (contains a.Watchdog.a_message "qd")
   | l -> Alcotest.failf "expected one alert, got %d" (List.length l));
  (* Still breaching: the alert stays, its since unchanged (steady state,
     no re-fire). *)
  Watchdog.poll ~now:105. wd ~snapshot:(snap 30) ~shards_down:0;
  (match Watchdog.active wd with
   | [ a ] ->
     Alcotest.(check (float 1e-9)) "since survives steady firing" 101. a.Watchdog.a_since;
     Alcotest.(check (float 1e-9)) "value tracks the latest poll" 30. a.Watchdog.a_value
   | l -> Alcotest.failf "expected one alert, got %d" (List.length l));
  Watchdog.poll ~now:106. wd ~snapshot:(snap 3) ~shards_down:0;
  Alcotest.(check int) "back under threshold: resolved" 0 (Watchdog.firing_count wd)

let test_watchdog_ratio_needs_history () =
  let rules =
    [ { Watchdog.r_name = "err";
        r_source = Watchdog.Ratio ("proto.requests_failed", "proto.requests");
        r_threshold = 0.5 } ]
  in
  let wd = Watchdog.create ~rules () in
  let snap total failed =
    { empty_snap with
      Metrics.counters = [ ("proto.requests", total); ("proto.requests_failed", failed) ] }
  in
  (* First poll: no history, the ratio stays silent even though the
     lifetime ratio breaches. *)
  Watchdog.poll ~now:0. wd ~snapshot:(snap 4 3) ~shards_down:0;
  Alcotest.(check int) "first poll silent" 0 (Watchdog.firing_count wd);
  (* No traffic since: a zero denominator is not a 100% error rate. *)
  Watchdog.poll ~now:1. wd ~snapshot:(snap 4 3) ~shards_down:0;
  Alcotest.(check int) "zero-delta denominator silent" 0 (Watchdog.firing_count wd);
  (* 16 new requests, 12 failed: the ratio breaches on the delta. *)
  Watchdog.poll ~now:2. wd ~snapshot:(snap 20 15) ~shards_down:0;
  Alcotest.(check int) "ratio fires on deltas" 1 (Watchdog.firing_count wd);
  (* The next interval is clean: it resolves. *)
  Watchdog.poll ~now:4. wd ~snapshot:(snap 21 15) ~shards_down:0;
  Alcotest.(check int) "clean interval resolves it" 0 (Watchdog.firing_count wd)

let test_watchdog_shards_down () =
  (* The default pack includes shard-down; feed it the router's count. *)
  let wd = Watchdog.create () in
  Watchdog.poll ~now:50. wd ~snapshot:empty_snap ~shards_down:1;
  (match Watchdog.active wd with
   | [ a ] ->
     Alcotest.(check string) "shard-down fires" "shard-down" a.Watchdog.a_rule;
     Alcotest.(check (float 1e-9)) "count recorded" 1. a.Watchdog.a_value
   | l -> Alcotest.failf "expected exactly shard-down, got %d alerts" (List.length l));
  Watchdog.poll ~now:51. wd ~snapshot:empty_snap ~shards_down:0;
  Alcotest.(check int) "recovery resolves it" 0 (Watchdog.firing_count wd)

(* --- structured logging ----------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let with_log_file f =
  let path = Filename.temp_file "sagma_test_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Log.detach ();
      Log.set_level Log.Info;
      Sys.remove path)
    (fun () ->
      Log.to_file path;
      f path)

let test_log_jsonl () =
  with_log_file @@ fun path ->
  Log.set_level Log.Debug;
  Log.debug "fields"
    ~fields:
      [ Log.str "s" "a\"b"; Log.int "n" 42; Log.float "f" 1.5; Log.bool "b" true;
        Log.float "inf" infinity ];
  Log.info "bare";
  Log.detach ();
  match read_lines path with
  | [ l1; l2 ] ->
    Alcotest.(check bool) "object per line" true
      (String.length l1 > 1 && l1.[0] = '{' && l1.[String.length l1 - 1] = '}');
    Alcotest.(check bool) "event name" true (contains l1 "\"event\":\"fields\"");
    Alcotest.(check bool) "level" true (contains l1 "\"level\":\"debug\"");
    Alcotest.(check bool) "timestamp" true (contains l1 "\"ts\":");
    Alcotest.(check bool) "string field escaped" true (contains l1 "\"s\":\"a\\\"b\"");
    Alcotest.(check bool) "int field" true (contains l1 "\"n\":42");
    Alcotest.(check bool) "bool field" true (contains l1 "\"b\":true");
    Alcotest.(check bool) "non-finite float is null" true (contains l1 "\"inf\":null");
    Alcotest.(check bool) "line parses as JSON" true (is_json l1);
    Alcotest.(check bool) "second event" true (contains l2 "\"event\":\"bare\"")
  | lines -> Alcotest.failf "expected 2 log lines, got %d" (List.length lines)

let test_log_threshold () =
  with_log_file @@ fun path ->
  Log.set_level Log.Warn;
  Alcotest.(check bool) "info below threshold" false (Log.enabled Log.Info);
  Alcotest.(check bool) "error above threshold" true (Log.enabled Log.Error);
  Log.info "dropped";
  Log.warn "kept";
  Log.error "kept too";
  Log.detach ();
  let lines = read_lines path in
  Alcotest.(check int) "threshold filters" 2 (List.length lines);
  Alcotest.(check bool) "warn first" true (contains (List.nth lines 0) "\"level\":\"warn\"")

let test_log_no_sink () =
  Log.detach ();
  Alcotest.(check bool) "sink-less logging disabled" false (Log.enabled Log.Error);
  (* Must not raise. *)
  Log.error "into the void";
  let a = Log.next_request_id () in
  let b = Log.next_request_id () in
  Alcotest.(check bool) "request ids increase" true (b > a)

let test_level_of_string () =
  List.iter
    (fun (s, l) -> Alcotest.(check bool) s true (Log.level_of_string s = Some l))
    [ ("debug", Log.Debug); ("info", Log.Info); ("warn", Log.Warn); ("error", Log.Error) ];
  Alcotest.(check bool) "unknown level rejected" true (Log.level_of_string "loud" = None)

(* --- span tracing ---------------------------------------------------------- *)

let span_names roots = List.map (fun s -> s.Trace.name) roots

let test_span_nesting () =
  with_metrics @@ fun () ->
  let v =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "first" (fun () -> ()) ;
        Trace.with_span "second" (fun () -> 42))
  in
  Alcotest.(check int) "value passes through" 42 v;
  (match Trace.roots () with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Trace.name;
    Alcotest.(check (list string))
      "children in execution order" [ "first"; "second" ]
      (span_names root.Trace.children);
    Alcotest.(check bool) "duration covers children" true
      (root.Trace.ms >= 0.0
      && List.for_all (fun c -> c.Trace.ms <= root.Trace.ms +. 1e-6) root.Trace.children)
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
  Trace.reset ();
  Alcotest.(check int) "reset drops roots" 0 (List.length (Trace.roots ()))

let test_span_disabled_and_exn () =
  (* disabled: no recording at all *)
  Trace.reset ();
  Trace.with_span "ghost" (fun () -> ());
  Alcotest.(check int) "nothing recorded when off" 0 (List.length (Trace.roots ()));
  (* enabled: a raising body still closes its span *)
  with_metrics @@ fun () ->
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check (list string)) "span recorded despite raise" [ "boom" ]
    (span_names (Trace.roots ()))

let test_span_off_domain () =
  with_metrics @@ fun () ->
  (* Trace state is domain-local: a span opened on another domain builds
     its own intact tree and lands on the shared completed ring — no
     corruption of this domain's stack, no degraded histogram fallback. *)
  let d = Domain.spawn (fun () -> Trace.with_span "offdom" (fun () -> 13)) in
  Alcotest.(check int) "value passes through off-domain" 13 (Domain.join d);
  Alcotest.(check (list string)) "off-domain span recorded intact" [ "offdom" ]
    (span_names (Trace.roots ()));
  (* Main-domain spans land on the same ring, after it. *)
  Trace.with_span "ondom" (fun () -> ());
  Alcotest.(check (list string)) "ring shared across domains" [ "offdom"; "ondom" ]
    (span_names (Trace.roots ()))

let test_with_request_basics () =
  with_metrics @@ fun () ->
  let v, { Trace.r_root = root; _ } =
    Trace.with_request (fun () ->
        Trace.with_span "phase_a" (fun () -> ());
        Trace.with_span "phase_b" (fun () -> 17))
  in
  Alcotest.(check int) "value passes through" 17 v;
  Alcotest.(check string) "root is the request" "request" root.Trace.name;
  Alcotest.(check (list string)) "phases in order" [ "phase_a"; "phase_b" ]
    (span_names root.Trace.children);
  Alcotest.(check int) "request trees stay off the ambient ring" 0
    (List.length (Trace.roots ()));
  (match Trace.requests () with
   | [ rt ] ->
     Alcotest.(check bool) "fresh trace id assigned" true (String.length rt.Trace.r_id > 0);
     Alcotest.(check (list string)) "ring holds the same tree" [ "phase_a"; "phase_b" ]
       (span_names rt.Trace.r_root.Trace.children)
   | rts -> Alcotest.failf "expected 1 request trace, got %d" (List.length rts));
  (* A caller-supplied (wire-propagated) id is preserved verbatim. *)
  let _, rt = Trace.with_request ~trace_id:"client-42" (fun () -> ()) in
  Alcotest.(check string) "caller id preserved" "client-42" rt.Trace.r_id;
  (* A raising request still completes its trace, then re-raises. *)
  (try ignore (Trace.with_request (fun () -> failwith "x")) with Failure _ -> ());
  Alcotest.(check int) "raising request still recorded" 3
    (List.length (Trace.requests ()));
  let _, rt =
    Trace.with_request ~trace_id:"id\"\001\n" (fun () ->
        Trace.with_span "span\"\007\t" (fun () -> ()))
  in
  Alcotest.(check bool) "chrome trace with quotes and control bytes parses" true
    (is_json (Json.to_string (Trace.chrome_json [ rt ])))

let test_pool_inherits_context () =
  with_metrics @@ fun () ->
  let module Pool = Sagma_pool.Pool in
  let pool = Pool.create ~name:"trace-test" ~workers:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let total, { Trace.r_root = root; _ } =
    Trace.with_request (fun () ->
        Trace.with_span "fanout" (fun () ->
            List.init 4 (fun i ->
                Pool.submit pool (fun () ->
                    Trace.with_span (Printf.sprintf "task%d" i) (fun () -> i)))
            |> List.map Pool.await
            |> List.fold_left ( + ) 0))
  in
  Alcotest.(check int) "futures resolved" 6 total;
  match root.Trace.children with
  | [ fanout ] ->
    Alcotest.(check string) "fanout phase" "fanout" fanout.Trace.name;
    (* Worker spans attach under the frame open on the submitting domain
       at submit time — completion order is nondeterministic, the set is
       not. *)
    Alcotest.(check (list string)) "worker spans inherited the request context"
      [ "task0"; "task1"; "task2"; "task3" ]
      (List.sort compare (span_names fanout.Trace.children));
    Alcotest.(check int) "no stray ambient roots" 0 (List.length (Trace.roots ()))
  | cs -> Alcotest.failf "expected 1 fanout child, got %d" (List.length cs)

let test_concurrent_requests_no_leak () =
  with_metrics @@ fun () ->
  (* Four domains each run their own request at once. Every tree must
     come back intact with only its own spans, and every cost scope must
     see only its own counter bumps. *)
  let rows_counter = Metrics.counter "scheme.agg.rows" in
  let ds =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            Trace.with_request ~trace_id:(Printf.sprintf "req%d" i) (fun () ->
                for _ = 1 to 50 do
                  Trace.with_span (Printf.sprintf "work%d" i) (fun () -> ())
                done;
                Metrics.add rows_counter (i + 1))))
  in
  let rts = List.map (fun d -> snd (Domain.join d)) ds in
  List.iteri
    (fun i rt ->
      Alcotest.(check string) "trace id survives" (Printf.sprintf "req%d" i) rt.Trace.r_id;
      Alcotest.(check int) "every span present" 50 (List.length rt.Trace.r_root.Trace.children);
      List.iter
        (fun c ->
          Alcotest.(check string) "no cross-request span leakage"
            (Printf.sprintf "work%d" i) c.Trace.name)
        rt.Trace.r_root.Trace.children;
      Alcotest.(check int) "cost scope isolated per request" (i + 1) (count rt "cost.agg_rows"))
    rts;
  Alcotest.(check int) "all four requests on the ring" 4 (List.length (Trace.requests ()));
  Alcotest.(check int) "global counter saw every scoped bump" 10 (Metrics.value rows_counter)

let test_request_ring_eviction_under_load () =
  with_metrics @@ fun () ->
  (* Two domains push 700 traced requests each — more than the ring's
     1024-entry bound. The ring must stay at the bound, evict oldest
     first, and every surviving tree must still be intact. *)
  let per_domain = 700 in
  let ds =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              ignore
                (Trace.with_request ~trace_id:(Printf.sprintf "d%d-%d" d i) (fun () ->
                     Trace.with_span "work" (fun () -> ())))
            done))
  in
  List.iter Domain.join ds;
  let reqs = Trace.requests () in
  Alcotest.(check int) "ring capped at its bound" 1024 (List.length reqs);
  (* Eviction is oldest-first and each domain pushes its own requests in
     order, so the survivors from either domain are a contiguous suffix
     of that domain's submission sequence, ending at its last request. *)
  List.iter
    (fun d ->
      let prefix = Printf.sprintf "d%d-" d in
      let plen = String.length prefix in
      let ids =
        List.filter_map
          (fun rt ->
            let id = rt.Trace.r_id in
            if String.length id > plen && String.sub id 0 plen = prefix then
              Some (int_of_string (String.sub id plen (String.length id - plen)))
            else None)
          reqs
      in
      Alcotest.(check bool) (Printf.sprintf "domain %d kept some requests" d) true (ids <> []);
      Alcotest.(check (list int))
        (Printf.sprintf "domain %d survivors in submission order" d)
        (List.sort compare ids) ids;
      let lo = List.hd ids in
      Alcotest.(check (list int))
        (Printf.sprintf "domain %d survivors form a contiguous suffix" d)
        (List.init (List.length ids) (fun i -> lo + i))
        ids;
      Alcotest.(check int)
        (Printf.sprintf "domain %d newest request survives" d)
        (per_domain - 1)
        (List.nth ids (List.length ids - 1)))
    [ 0; 1 ];
  (* No torn trees: every survivor carries exactly its one child span. *)
  List.iter
    (fun rt ->
      Alcotest.(check (list string)) "tree intact" [ "work" ]
        (span_names rt.Trace.r_root.Trace.children))
    reqs

let test_snapshot_concurrent_with_writers () =
  with_metrics @@ fun () ->
  (* Four writer domains hammer a counter, a gauge and a histogram while
     the main domain snapshots concurrently: every snapshot must be
     internally consistent (counters monotone across snapshots,
     cumulative buckets monotone with the +Inf bucket equal to the
     count), and the final totals must be exact. *)
  let c = Metrics.counter "test.conc_total" in
  let g = Metrics.gauge "test.conc_gauge" in
  let h = Metrics.histogram "test.conc_ms" in
  let iters = 2000 in
  let writers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to iters do
              Metrics.incr c;
              Metrics.gauge_set g ((d * iters) + i);
              Metrics.observe h (float_of_int (i mod 50))
            done))
  in
  let last_count = ref 0 in
  for _ = 1 to 50 do
    let s = Metrics.snapshot () in
    (match List.assoc_opt "test.conc_total" s.Metrics.counters with
     | Some n ->
       Alcotest.(check bool) "counter monotone and bounded" true
         (n >= !last_count && n <= 4 * iters);
       last_count := n
     | None -> ());
    match List.assoc_opt "test.conc_ms" s.Metrics.histograms with
    | Some hist ->
      let cum_last = Array.fold_left ( + ) 0 hist.Metrics.h_counts in
      Alcotest.(check int) "+Inf bucket equals count" hist.Metrics.h_count cum_last;
      Array.iter
        (fun c -> Alcotest.(check bool) "bucket counts nonnegative" true (c >= 0))
        hist.Metrics.h_counts
    | None -> ()
  done;
  List.iter Domain.join writers;
  let s = Metrics.snapshot () in
  Alcotest.(check (option int)) "final counter exact" (Some (4 * iters))
    (List.assoc_opt "test.conc_total" s.Metrics.counters);
  (match List.assoc_opt "test.conc_ms" s.Metrics.histograms with
   | Some hist -> Alcotest.(check int) "final histogram count exact" (4 * iters) hist.Metrics.h_count
   | None -> Alcotest.fail "histogram missing from the final snapshot");
  match List.assoc_opt "test.conc_gauge" s.Metrics.gauges with
  | Some v ->
    Alcotest.(check bool) "gauge holds some writer's last value" true (v >= 1 && v <= 4 * iters)
  | None -> Alcotest.fail "gauge missing from the final snapshot"

(* --- leakage auditor -------------------------------------------------------- *)

let with_audit f =
  Fun.protect
    ~finally:(fun () ->
      Audit.set_enabled false;
      Audit.reset ())
    (fun () ->
      Audit.reset ();
      Audit.set_enabled true;
      f ())

let check_fails name = function
  | Audit.Fail _ -> ()
  | Audit.Pass -> Alcotest.failf "%s: expected Fail, got Pass" name

let check_passes name = function
  | Audit.Pass -> ()
  | Audit.Fail errs -> Alcotest.failf "%s: unexpected Fail: %s" name (String.concat "; " errs)

let test_audit_record_and_check () =
  with_audit @@ fun () ->
  Audit.begin_request 7;
  Audit.probe ~kind:"sse.bucket" ~tag:"t1" ~matches:[ 2; 0; 1 ];
  Audit.probe ~kind:"sse.bucket" ~tag:"t1" ~matches:[ 0; 2; 1 ] (* repeat = search pattern *);
  Audit.rows_paired 3;
  let t = Option.get (Audit.end_request ()) in
  Alcotest.(check int) "trace id" 7 t.Audit.t_id;
  Alcotest.(check int) "probes kept in order" 2 (List.length t.Audit.t_probes);
  Alcotest.(check int) "rows paired" 3 t.Audit.t_rows_paired;
  let predicted = [ ("sse.bucket", "t1", [ 0; 1; 2 ]) ] in
  check_passes "order-insensitive match"
    (Audit.check ~max_rows_paired:3 ~predicted t);
  check_fails "unpredicted probe" (Audit.check ~predicted:[] t);
  check_fails "access-pattern mismatch"
    (Audit.check ~predicted:[ ("sse.bucket", "t1", [ 0; 1 ]) ] t);
  check_fails "wrong kind"
    (Audit.check ~predicted:[ ("sse.filter", "t1", [ 0; 1; 2 ]) ] t);
  check_fails "rows paired beyond bound" (Audit.check ~max_rows_paired:2 ~predicted t);
  let s = Audit.summary () in
  Alcotest.(check int) "summary requests" 1 s.Audit.s_requests;
  Alcotest.(check int) "summary probes" 2 s.Audit.s_probes;
  Alcotest.(check int) "summary checks" 5 s.Audit.s_checks_run;
  Alcotest.(check int) "summary failures" 4 s.Audit.s_check_failures

let test_audit_disabled_noop () =
  Audit.reset ();
  Alcotest.(check bool) "off by default" false !Audit.enabled;
  Audit.begin_request 1;
  Audit.probe ~kind:"sse.bucket" ~tag:"t" ~matches:[ 0 ];
  Audit.rows_paired 5;
  Alcotest.(check bool) "no trace when off" true (Audit.end_request () = None);
  Alcotest.(check int) "nothing retained" 0 (List.length (Audit.traces ()))

let test_audit_failure_messages () =
  with_audit @@ fun () ->
  Audit.begin_request 1;
  Audit.probe ~kind:"sse.bucket" ~tag:"rogue" ~matches:[ 9 ];
  let t = Option.get (Audit.end_request ()) in
  match Audit.check ~predicted:[] t with
  | Audit.Pass -> Alcotest.fail "expected Fail"
  | Audit.Fail errs ->
    Alcotest.(check bool) "message names the probe" true
      (List.exists (fun e -> contains e "rogue") errs);
    let b = Buffer.create 64 in
    let fmt = Format.formatter_of_buffer b in
    Audit.pp_verdict fmt (Audit.Fail errs);
    Format.pp_print_flush fmt ();
    Alcotest.(check bool) "pp_verdict renders messages" true
      (contains (Buffer.contents b) "rogue")

(* --- scheme counters vs the analytic cost model ---------------------------- *)

let schema : Table.schema =
  [ { Table.name = "salary"; ty = Value.TInt }; { Table.name = "dept"; ty = Value.TStr } ]

let dept_domain = [ str "A"; str "B"; str "C" ]

let table =
  Table.of_rows schema
    [ [| vi 1000; str "A" |];
      [| vi 2000; str "B" |];
      [| vi 3000; str "C" |];
      [| vi 4000; str "A" |] ]

let config =
  Config.make ~bucket_size:2 ~max_group_attrs:1 ~filter_columns:[ "dept" ]
    ~value_columns:[ "salary" ] ~group_columns:[ "dept" ] ()

(* Built with metrics disabled so setup/encryption costs don't pollute the
   per-query counter assertions below. *)
let client = Scheme.setup config ~domains:[ ("dept", dept_domain) ] (Sagma_crypto.Drbg.create "obs-tests")
let enc = Scheme.encrypt_table client table

(* The same rows twice over: same joint buckets, twice the rows in each. *)
let enc_doubled =
  Scheme.encrypt_table client (Table.of_rows schema (Table.rows table @ Table.rows table))

(* Field inversions spent by [Scheme.aggregate] alone — decryption's
   discrete logs walk affine additions and are not counted here. Besides
   the per-query Lagrange denominators of the indicator polynomials,
   level-1 shifts and counts are normalised with one batched inversion
   per joint bucket and chunk, so the count must not grow with the rows. *)
let check_aggregate_invms q =
  let invm () = Metrics.value (Metrics.counter "bigint.invm") in
  let delta f =
    let before = invm () in
    f ();
    invm () - before
  in
  let aggregate enc () = ignore (Scheme.aggregate enc (Scheme.token client q)) in
  let indicators () =
    let n = Sagma_bgn.Bgn.n client.Scheme.pp.Scheme.bgn_pk in
    List.iter
      (fun j -> ignore (Polynomial.multivariate_indicator ~n ~bucket_size:2 [| j |]))
      [ 0; 1 ]
  in
  let once = delta (aggregate enc) in
  let level1 = once - delta indicators in
  (* Two joint buckets, one chunk each (no worker pool). *)
  Alcotest.(check bool)
    (Printf.sprintf "at most one level-1 invm per joint bucket x chunk (%d)" level1)
    true (level1 <= 2);
  Alcotest.(check int) "doubling the rows leaves the invm count unchanged" once
    (delta (aggregate enc_doubled))

let test_sum_matches_cost_model () =
  with_metrics @@ fun () ->
  let q = Query.make ~group_by:[ "dept" ] (Query.Sum "salary") in
  (* The client's first level-2 decryption table pairs ê(g, g) once. *)
  let table_pairings = if Option.is_none client.Scheme.dec2_tables then 1 else 0 in
  let rows = Scheme.query client enc q in
  Alcotest.(check int) "three groups" 3 (List.length rows);
  (* §3.4: one ciphertext multiplication (pairing) per touched row, per
     block of the joint bucket (B^arity = 2) and per CRT channel. *)
  let channels = Scheme.Crt.channels client.Scheme.pp.Scheme.channels in
  let expected_mul = 4 * 2 * channels in
  Alcotest.(check int) "bgn.mul = rows × blocks × channels" expected_mul
    (Metrics.value (Metrics.counter "bgn.mul"));
  Alcotest.(check int) "every row touched exactly once" 4
    (Metrics.value (Metrics.counter "scheme.agg.rows"));
  Alcotest.(check int) "one joint bucket per dept bucket" 2
    (Metrics.value (Metrics.counter "scheme.agg.joint_buckets"));
  Alcotest.(check bool) "decryption solved discrete logs" true
    (Metrics.value (Metrics.counter "bgn.dlog.solves") > 0);
  (* PR 6: the server side runs batched products of pairings, yet the
     pairing count itself must still follow the analytic model — and the
     per-step field inversions of the old affine Miller loop are gone. *)
  Alcotest.(check int) "pairing.pairings matches bgn.mul" (expected_mul + table_pairings)
    (Metrics.value (Metrics.counter "pairing.pairings"));
  Alcotest.(check bool) "aggregation uses pairing_prod" true
    (Metrics.value (Metrics.counter "pairing.prod_calls") > 0);
  Alcotest.(check bool) "invm collapsed below one per pairing" true
    (Metrics.value (Metrics.counter "bigint.invm") < expected_mul);
  Alcotest.(check bool) "batched inversion used" true
    (Metrics.value (Metrics.counter "bigint.invm_batch") > 0);
  check_aggregate_invms q

let test_count_needs_no_pairings () =
  with_metrics @@ fun () ->
  (* Count_level1 (no dummy rows): indicators are summed in G1 — curve
     additions only, zero ciphertext multiplications. *)
  let q = Query.make ~group_by:[ "dept" ] Query.Count in
  let rows = Scheme.query client enc q in
  Alcotest.(check int) "three groups" 3 (List.length rows);
  Alcotest.(check int) "COUNT performs no bgn.mul" 0
    (Metrics.value (Metrics.counter "bgn.mul"));
  Alcotest.(check int) "rows still walked" 4
    (Metrics.value (Metrics.counter "scheme.agg.rows"));
  check_aggregate_invms q

(* Rows grow under one client: after each append it answers a SUM and a
   COUNT, both equal to the plaintext executor. Each dlog level keeps one
   table and rebuilds it only when the bound it needs has outgrown it, so
   from [r0] rows at the first query to [r1] at the last a level builds at
   most ⌈log₂(r1 / r0)⌉ + 1 tables. A level's cached bound only grows,
   so its builds are the distinct bounds it held. *)
let test_decrypt_while_rows_grow () =
  with_metrics @@ fun () ->
  let c = { client with Scheme.dec1_tables = None; dec2_tables = None } in
  let builds () = Metrics.value (Metrics.counter "bgn.dlog.table_builds") in
  let bounds1 = ref [] and bounds2 = ref [] in
  let note r = function
    | Some (b, _) when not (List.mem b !r) -> r := b :: !r
    | _ -> ()
  in
  let sorted rows = List.sort compare rows in
  let appends = 12 in
  let before = builds () in
  let plain = ref table and enc = ref enc in
  for i = 1 to appends do
    let salary = 500 * i and dept = List.nth dept_domain (i mod 3) in
    plain := Table.of_rows schema (Table.rows !plain @ [ [| vi salary; dept |] ]);
    enc := Scheme.append_row c !enc ~values:[| salary |] ~groups:[| dept |] ~filters:[ ("dept", dept) ];
    List.iter
      (fun agg ->
        let q = Query.make ~group_by:[ "dept" ] agg in
        let got =
          List.map (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
            (Scheme.query c !enc q)
        and want =
          List.map (fun r -> (List.map Value.to_string r.Executor.group, r.Executor.sum, r.Executor.count))
            (Executor.run !plain q)
        in
        Alcotest.(check (list (triple (list string) int int)))
          (Printf.sprintf "%d rows" (Table.row_count !plain))
          (sorted want) (sorted got);
        note bounds1 c.Scheme.dec1_tables;
        note bounds2 c.Scheme.dec2_tables)
      [ Query.Sum "salary"; Query.Count ]
  done;
  let r0 = Table.row_count table + 1 and r1 = Table.row_count table + appends in
  let budget = int_of_float (Float.ceil (Float.log2 (float_of_int r1 /. float_of_int r0))) + 1 in
  let built1 = List.length !bounds1 and built2 = List.length !bounds2 in
  Alcotest.(check bool) (Printf.sprintf "level 1: %d builds <= %d" built1 budget) true (built1 <= budget);
  Alcotest.(check bool) (Printf.sprintf "level 2: %d builds <= %d" built2 budget) true (built2 <= budget);
  Alcotest.(check int) "bgn.dlog.table_builds counts exactly those" (built1 + built2)
    (builds () - before)

let test_query_trace_shape () =
  with_metrics @@ fun () ->
  let q = Query.make ~group_by:[ "dept" ] (Query.Sum "salary") in
  ignore (Scheme.query client enc q);
  Alcotest.(check (list string)) "one root per query phase"
    [ "token"; "aggregate"; "decrypt" ]
    (span_names (Trace.roots ()));
  let agg = List.nth (Trace.roots ()) 1 in
  Alcotest.(check (list string)) "aggregate sub-phases"
    [ "filter"; "bucket_intersection"; "indicator_coeffs"; "pairing_loop" ]
    (span_names agg.Trace.children)

let test_explain_cost_matches_model () =
  with_metrics @@ fun () ->
  (* The per-request cost scope must reproduce the §3.4 analytic model:
     bgn_mul = rows × blocks per joint bucket (B^arity = 2) × CRT
     channels, exactly what the global counters already verify — but
     here as a request-scoped delta, the number an EXPLAIN block ships. *)
  let q = Query.make ~group_by:[ "dept" ] (Query.Sum "salary") in
  let rows, rt = Trace.with_request (fun () -> Scheme.query client enc q) in
  Alcotest.(check int) "three groups" 3 (List.length rows);
  let channels = Scheme.Crt.channels client.Scheme.pp.Scheme.channels in
  Alcotest.(check int) "cost.bgn_mul = rows × blocks × channels" (4 * 2 * channels)
    (count rt "cost.bgn_mul");
  Alcotest.(check int) "cost.agg_rows counts each row once" 4 (count rt "cost.agg_rows");
  Alcotest.(check int) "cost.agg_buckets" 2 (count rt "cost.agg_buckets");
  Alcotest.(check bool) "dlog solves attributed" true (count rt "cost.dlog_solves" > 0);
  Alcotest.(check bool) "index postings attributed" true (count rt "cost.sse_postings" > 0);
  (* For a lone request the scoped delta equals the global counter. *)
  Alcotest.(check int) "scope delta = global counter"
    (Metrics.value (Metrics.counter "bgn.mul"))
    (count rt "cost.bgn_mul");
  (* The request tree carries the usual phase spans. *)
  Alcotest.(check (list string)) "request phases"
    [ "token"; "aggregate"; "decrypt" ]
    (List.map (fun (n, _) -> n) (Trace.phase_timings rt.Trace.r_root))

(* --- resource profiler ------------------------------------------------------ *)

let test_request_gc_counts () =
  with_metrics @@ fun () ->
  (* The per-request GC differential must be real allocation, bounded by
     an outer differential of the same counter (Gc.minor_words) taken
     around the same request: the EXPLAIN gc block can't claim more minor
     words than the whole enclosing region allocated. *)
  let q = Query.make ~group_by:[ "dept" ] (Query.Sum "salary") in
  let before = Gc.minor_words () in
  let rows, rt = Trace.with_request (fun () -> Scheme.query client enc q) in
  let after = Gc.minor_words () in
  Alcotest.(check int) "three groups" 3 (List.length rows);
  let outer = int_of_float (after -. before) in
  let inner = count rt "gc.minor_words" in
  Alcotest.(check bool) "SUM allocates nonzero minor words" true (inner > 0);
  Alcotest.(check bool) "request delta bounded by the outer differential" true (inner <= outer);
  Alcotest.(check bool) "heap size recorded" true (count rt "gc.heap_words" > 0)

let test_prof_attributes_pairing_loop () =
  with_metrics @@ fun () ->
  Prof.reset ();
  Prof.start ();
  Fun.protect
    ~finally:(fun () ->
      Prof.stop ();
      Prof.reset ())
    (fun () ->
      Alcotest.(check bool) "profiler active" true (Prof.active ());
      let q = Query.make ~group_by:[ "dept" ] (Query.Sum "salary") in
      let _, rt = Trace.with_request (fun () -> Scheme.query client enc q) in
      (* A SUM is pairings per row × block × channel: the pairing loop
         must dominate the request's allocation table. *)
      (match List.filter (fun (k, _) -> String.starts_with ~prefix:"alloc." k) rt.Trace.r_counts with
       | (top, w) :: _ ->
         Alcotest.(check string) "pairing_loop dominates the request" "alloc.pairing_loop" top;
         Alcotest.(check bool) "with real weight" true (w > 0)
       | [] -> Alcotest.fail "profiler left the allocation table empty");
      (* The global site table agrees with the per-request view. *)
      match Prof.top_sites ~n:1 () with
      | [ s ] ->
        Alcotest.(check string) "global top site" "pairing_loop" s.Prof.site_span;
        Alcotest.(check bool) "samples counted" true (s.Prof.site_samples > 0)
      | _ -> Alcotest.fail "no allocation sites recorded")

(* A traced SUM served through the request pipeline carries the whole
   cost block in its EXPLAIN trailer — the multi-pairing and batched
   inversion counters included — and, under the profiler, the
   request's allocation table. A server with an aggregation pool
   reports the same pairing counts, cold and warm: helpers' pairings
   land in the request, and a precomputation job is no cache hit. *)
let test_served_explain_counts () =
  with_metrics @@ fun () ->
  let module P = Sagma_protocol.Protocol in
  let module Server = Sagma_protocol.Server in
  Prof.reset ();
  Prof.start ();
  Fun.protect
    ~finally:(fun () ->
      Prof.stop ();
      Prof.reset ())
  @@ fun () ->
  let tok = Scheme.token client (Query.make ~group_by:[ "dept" ] (Query.Sum "salary")) in
  (* A cold then a warm served Aggregate on a fresh upload. *)
  let cold_warm st =
    ignore (Server.handle st (P.Upload { name = "t"; table = Scheme.encrypt_table client table }));
    let served () =
      let raw =
        Server.handle_encoded st
          (P.encode_request ~trace:{ P.tc_id = None; tc_sampled = true }
             (P.Aggregate { name = "t"; token = tok }))
      in
      match P.decode_response_x raw with
      | P.Aggregates _, Some rt -> rt
      | _ -> Alcotest.fail "expected a traced Aggregates reply"
    in
    let cold = served () in
    (cold, served ())
  in
  let first, warm = cold_warm (Server.create ()) in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " > 0") true (count first name > 0))
    [ "cost.prod_calls"; "cost.invm_batch"; "alloc.pairing_loop" ];
  (* A cold query builds one table per (row, channel) and finds it
     cached at every other block; a warm one finds every table. *)
  let channels = Scheme.Crt.channels client.Scheme.pp.Scheme.channels in
  Alcotest.(check int) "cold: hits = pairings - tables built"
    (count first "cost.pairings" - (count first "cost.agg_rows" * channels))
    (count first "cost.precomp_hits");
  Alcotest.(check int) "warm: every pairing hits" (count warm "cost.pairings")
    (count warm "cost.precomp_hits");
  let pool = Sagma_pool.Pool.create ~name:"explain" ~workers:1 () in
  let pooled_cold, pooled_warm =
    Fun.protect
      ~finally:(fun () -> Sagma_pool.Pool.shutdown pool)
      (fun () -> cold_warm (Server.create ~agg_pool:pool ()))
  in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ ", cold: pooled = inline") (count first name)
        (count pooled_cold name);
      Alcotest.(check int) (name ^ ", warm: pooled = inline") (count warm name)
        (count pooled_warm name))
    [ "cost.pairings"; "cost.prod_calls"; "cost.miller_steps"; "cost.precomp_hits" ]

let test_prof_light_span () =
  with_metrics @@ fun () ->
  Prof.reset ();
  Prof.start ();
  Fun.protect
    ~finally:(fun () ->
      Prof.stop ();
      Prof.reset ())
    (fun () ->
      (* A span far lighter than the minor heap, opened right after a
         minor collection: no collection runs inside it, so its words
         must come from the live minor counter, not the last GC's. *)
      Gc.minor ();
      Trace.with_span "light_span" (fun () ->
          ignore (Sys.opaque_identity (List.init 2000 (fun i -> Some i))));
      match List.find_opt (fun s -> s.Prof.site_span = "light_span") (Prof.top_sites ~n:64 ()) with
      | Some s -> Alcotest.(check bool) "light span words recorded" true (s.Prof.site_words > 0)
      | None -> Alcotest.fail "light span never reached the site table")

(* --- leakage auditor against the real scheme -------------------------------- *)

let run_audited tok =
  Audit.begin_request (Log.next_request_id ());
  ignore (Scheme.aggregate enc tok);
  Option.get (Audit.end_request ())

let test_scheme_audit_honest_pass () =
  with_audit @@ fun () ->
  let q =
    Query.make ~where:[ ("dept", str "A") ] ~group_by:[ "dept" ] (Query.Sum "salary")
  in
  let tok = Scheme.token client q in
  let t = run_audited tok in
  Alcotest.(check bool) "probes recorded" true (List.length t.Audit.t_probes > 0);
  Alcotest.(check bool) "filter probe present" true
    (List.exists (fun p -> p.Audit.p_kind = "sse.filter") t.Audit.t_probes);
  Alcotest.(check bool) "bucket probes present" true
    (List.exists (fun p -> p.Audit.p_kind = "sse.bucket") t.Audit.t_probes);
  check_passes "honest execution matches declared leakage"
    (Leakage.audit_check enc tok t)

let test_scheme_audit_flags_extra_probe () =
  with_audit @@ fun () ->
  (* A compromised/buggy server that reads one index entry beyond what
     the query's leakage licenses must be flagged. We forge the extra
     read through the production recording path (audited_search) with a
     filter token the query never issued. *)
  let q =
    Query.make ~where:[ ("dept", str "A") ] ~group_by:[ "dept" ] (Query.Sum "salary")
  in
  let tok = Scheme.token client q in
  Audit.begin_request (Log.next_request_id ());
  ignore (Scheme.aggregate enc tok);
  let rogue = Scheme.Sse.token client.Scheme.sse_key (Scheme.filter_keyword ~column:"dept" (str "B")) in
  ignore (Scheme.audited_search ~kind:"sse.filter" enc.Scheme.index rogue);
  let t = Option.get (Audit.end_request ()) in
  (match Leakage.audit_check enc tok t with
  | Audit.Fail errs ->
    Alcotest.(check bool) "failure mentions the unpredicted probe" true
      (List.exists (fun e -> contains e "unpredicted") errs)
  | Audit.Pass -> Alcotest.fail "forged probe escaped the auditor")

let test_scheme_audit_flags_extra_pairing () =
  with_audit @@ fun () ->
  let q = Query.make ~group_by:[ "dept" ] (Query.Sum "salary") in
  let tok = Scheme.token client q in
  Audit.begin_request (Log.next_request_id ());
  ignore (Scheme.aggregate enc tok);
  Audit.rows_paired 1000 (* server pairing rows it should not touch *);
  let t = Option.get (Audit.end_request ()) in
  check_fails "excess paired rows flagged" (Leakage.audit_check enc tok t)

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          Alcotest.test_case "gauge export" `Quick test_gauge_export;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "observe_ms" `Quick test_observe_ms;
          Alcotest.test_case "snapshot to JSON" `Quick test_snapshot_json;
          Alcotest.test_case "JSON writer output parses" `Quick test_json_writer;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "quantile estimates" `Quick test_quantiles;
          Alcotest.test_case "prometheus exposition" `Quick test_prometheus_exposition ] );
      ( "federation",
        [ Alcotest.test_case "label escaping" `Quick test_label_escaping;
          Alcotest.test_case "labeled exposition" `Quick test_labeled_exposition;
          Alcotest.test_case "merge hist stats" `Quick test_merge_hist_stats;
          Alcotest.test_case "merge snapshots" `Quick test_merge_snapshots ] );
      ( "watchdog",
        [ Alcotest.test_case "fire and resolve" `Quick test_watchdog_fire_resolve;
          Alcotest.test_case "ratio needs history" `Quick test_watchdog_ratio_needs_history;
          Alcotest.test_case "shard-down via router count" `Quick test_watchdog_shards_down ] );
      ( "log",
        [ Alcotest.test_case "JSON-lines events" `Quick test_log_jsonl;
          Alcotest.test_case "level threshold" `Quick test_log_threshold;
          Alcotest.test_case "no sink" `Quick test_log_no_sink;
          Alcotest.test_case "level_of_string" `Quick test_level_of_string ] );
      ( "trace",
        [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled + exception safety" `Quick test_span_disabled_and_exn;
          Alcotest.test_case "off-domain spans intact" `Quick test_span_off_domain;
          Alcotest.test_case "request contexts" `Quick test_with_request_basics;
          Alcotest.test_case "pool inherits context" `Quick test_pool_inherits_context;
          Alcotest.test_case "concurrent requests isolated" `Quick
            test_concurrent_requests_no_leak;
          Alcotest.test_case "ring eviction under load" `Quick
            test_request_ring_eviction_under_load;
          Alcotest.test_case "snapshot vs concurrent writers" `Quick
            test_snapshot_concurrent_with_writers ] );
      ( "audit",
        [ Alcotest.test_case "record and check" `Quick test_audit_record_and_check;
          Alcotest.test_case "disabled is a no-op" `Quick test_audit_disabled_noop;
          Alcotest.test_case "failure messages" `Quick test_audit_failure_messages ] );
      ( "scheme counters",
        [ Alcotest.test_case "SUM matches cost model" `Quick test_sum_matches_cost_model;
          Alcotest.test_case "COUNT needs no pairings" `Quick test_count_needs_no_pairings;
          Alcotest.test_case "decryption while rows grow" `Quick test_decrypt_while_rows_grow;
          Alcotest.test_case "query trace shape" `Quick test_query_trace_shape;
          Alcotest.test_case "EXPLAIN cost matches model" `Quick
            test_explain_cost_matches_model ] );
      ( "profiler",
        [ Alcotest.test_case "request gc delta" `Quick test_request_gc_counts;
          Alcotest.test_case "allocation attributed to pairing_loop" `Quick
            test_prof_attributes_pairing_loop;
          Alcotest.test_case "light span allocation recorded" `Quick test_prof_light_span;
          Alcotest.test_case "served EXPLAIN carries every count" `Quick
            test_served_explain_counts ] );
      ( "scheme audit",
        [ Alcotest.test_case "honest execution passes" `Quick test_scheme_audit_honest_pass;
          Alcotest.test_case "extra probe flagged" `Quick test_scheme_audit_flags_extra_probe;
          Alcotest.test_case "extra pairing flagged" `Quick test_scheme_audit_flags_extra_pairing ] )
    ]
