(* Prometheus text-format exposition of a metrics snapshot.

   Dotted registry names become legal Prometheus identifiers under a
   "sagma_" namespace ("proto.request_ms" → "sagma_proto_request_ms");
   counters gain the conventional "_total" suffix. Histograms expose the
   full fixed-grid cumulative buckets (le="...", +Inf last) plus _sum and
   _count, and the snapshot's p50/p95/p99 estimates ride along as gauges
   so dashboards need no PromQL histogram_quantile to get first-look
   latencies.

   Fleet federation (PR 10) introduces *labeled* series: a snapshot
   entry named "proto.requests{shard=\"1\"}" (built with {!labeled})
   renders as sagma_proto_requests_total{shard="1"}. Only the base name
   is sanitized; the label block travels verbatim, so label values must
   be escaped with {!escape_label_value} when the series is built —
   {!labeled} does it for you. *)

let namespace = "sagma"

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names are
   ASCII dotted paths, so mapping every other char to '_' suffices. *)
let sanitize (name : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* Prometheus label values escape backslash, double-quote and newline
   (the exposition format's only escapes). Hostile shard endpoints —
   quotes, newlines injecting fake samples — must round-trip as data. *)
let escape_label_value (v : string) : string =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let labeled (name : string) (labels : (string * string) list) : string =
  match labels with
  | [] -> name
  | _ ->
    let pair (k, v) = Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v) in
    name ^ "{" ^ String.concat "," (List.map pair labels) ^ "}"

(* Split "base{...}" into the sanitizable base and the opaque label
   block (empty for unlabeled names). *)
let split_labels (name : string) : string * string =
  match String.index_opt name '{' with
  | None -> (name, "")
  | Some i -> (String.sub name 0 i, String.sub name i (String.length name - i))

let metric_name (name : string) : string = namespace ^ "_" ^ sanitize (fst (split_labels name))

(* Label values and the `le` bound: Prometheus renders +Inf literally. *)
let le_value (bound : float) : string =
  if bound = infinity then "+Inf" else Printf.sprintf "%g" bound

let float_value (v : float) : string =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Printf.sprintf "%g" v

(* Merge a series' own label block with an extra label (the histogram
   `le` bound): {shard="1"} + le → {shard="1",le="..."} . *)
let with_label (labels : string) (extra : string) : string =
  if labels = "" then "{" ^ extra ^ "}"
  else String.sub labels 0 (String.length labels - 1) ^ "," ^ extra ^ "}"

(* [raw] samples carry their final exposition names (the conventional
   process-level "ocaml_gc_*" family that [sagma stats --prometheus]
   renders from a Stats reply's gc section); they bypass the sagma
   namespace. Names ending in "_total" are typed counter, everything
   else gauge. *)
let prometheus ?uptime_s ?(raw : (string * float) list = []) (s : Metrics.snapshot) : string =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  (* HELP/TYPE are per family: labeled series of one family share them,
     and a duplicate TYPE line is a parse error for real scrapers. *)
  let seen = Hashtbl.create 64 in
  let header (m : string) (typ : string) (help : string) : unit =
    if not (Hashtbl.mem seen m) then begin
      Hashtbl.add seen m ();
      line "# HELP %s %s" m help;
      line "# TYPE %s %s" m typ
    end
  in
  (match uptime_s with
   | Some u ->
     let m = namespace ^ "_uptime_seconds" in
     header m "gauge" "Seconds since the server started";
     line "%s %s" m (float_value u)
   | None -> ());
  List.iter
    (fun (name, v) ->
      let m = sanitize name in
      let typ =
        if String.length m > 6 && String.sub m (String.length m - 6) 6 = "_total" then "counter"
        else "gauge"
      in
      header m typ (Printf.sprintf "Process-level sample %s" name);
      line "%s %s" m (float_value v))
    raw;
  List.iter
    (fun (name, v) ->
      let base, labels = split_labels name in
      let m = metric_name base ^ "_total" in
      header m "counter" (Printf.sprintf "SAGMA counter %s" base);
      line "%s%s %d" m labels v)
    s.Metrics.counters;
  List.iter
    (fun (name, v) ->
      let base, labels = split_labels name in
      let m = metric_name base in
      header m "gauge" (Printf.sprintf "SAGMA gauge %s" base);
      line "%s%s %d" m labels v)
    s.Metrics.gauges;
  List.iter
    (fun (name, h) ->
      let base, labels = split_labels name in
      let m = metric_name base in
      header m "histogram" (Printf.sprintf "SAGMA histogram %s" base);
      Array.iter
        (fun (bound, cum) ->
          line "%s_bucket%s %d" m
            (with_label labels (Printf.sprintf "le=\"%s\"" (le_value bound)))
            cum)
        h.Metrics.h_buckets;
      line "%s_sum%s %s" m labels (float_value h.Metrics.h_sum);
      line "%s_count%s %d" m labels h.Metrics.h_count;
      (* Quantile estimates as companion gauges (histogram series may not
         carry a `quantile` label themselves). *)
      List.iter
        (fun (suffix, v) ->
          let g = m ^ "_" ^ suffix in
          header g "gauge" (Printf.sprintf "SAGMA histogram quantile %s %s" base suffix);
          line "%s%s %s" g labels (float_value v))
        [ ("p50", h.Metrics.h_p50); ("p95", h.Metrics.h_p95); ("p99", h.Metrics.h_p99) ])
    s.Metrics.histograms;
  Buffer.contents buf
