(* Prometheus text-format exposition of a metrics snapshot.

   Dotted registry names become legal Prometheus identifiers under a
   "sagma_" namespace ("proto.request_ms" → "sagma_proto_request_ms");
   counters gain the conventional "_total" suffix. Histograms expose the
   full fixed-grid cumulative buckets (le="...", +Inf last), summed here
   from the snapshot's raw counts, plus _sum and _count, and p50/p95/p99
   estimates ride along as gauges so dashboards need no PromQL
   histogram_quantile to get first-look latencies.

   Labels are added here, at the printer: a coordinator's per-shard
   snapshots render with {shard="i"}. A registry name may also carry its
   own label block, built with {!labeled} (the router's
   router.shard_up{shard="0",endpoint="..."} gauges). Only the base name
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

(* Split "base{...}" into the sanitizable base and the labels inside
   the block ("" for unlabeled names). *)
let split_labels (name : string) : string * string =
  match String.index_opt name '{' with
  | None -> (name, "")
  | Some i -> (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 2))

let metric_name (name : string) : string = namespace ^ "_" ^ sanitize (fst (split_labels name))

(* Label values and the `le` bound: Prometheus renders +Inf literally. *)
let le_value (bound : float) : string =
  if bound = infinity then "+Inf" else Printf.sprintf "%g" bound

let float_value (v : float) : string =
  if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else Printf.sprintf "%g" v

(* A series' label block from its parts, empty parts dropped:
   [shard="1"] + [le="..."] → {shard="1",le="..."}. *)
let block (parts : string list) : string =
  match List.filter (fun p -> p <> "") parts with
  | [] -> ""
  | ps -> "{" ^ String.concat "," ps ^ "}"

(* [raw] samples carry their final exposition names (the conventional
   process-level "ocaml_gc_*" family that [sagma stats --prometheus]
   renders from a Stats reply's gc section); they bypass the sagma
   namespace. Names ending in "_total" are typed counter, everything
   else gauge. *)
let prometheus ?uptime_s ?(raw : (string * float) list = [])
    ?(shards : (int * Metrics.snapshot) list = []) (s : Metrics.snapshot) : string =
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
  (* The unlabeled snapshot first, then each shard's under its label,
     kind by kind. *)
  let sections =
    ("", s) :: List.map (fun (i, snap) -> (Printf.sprintf "shard=\"%d\"" i, snap)) shards
  in
  let each :
        'a. (Metrics.snapshot -> (string * 'a) list) -> (string -> string list -> 'a -> unit) -> unit
      =
   fun series f ->
    List.iter
      (fun (shard, snap) ->
        List.iter
          (fun (name, v) ->
            let base, labels = split_labels name in
            f base [ labels; shard ] v)
          (series snap))
      sections
  in
  each
    (fun snap -> snap.Metrics.counters)
    (fun base labels v ->
      let m = metric_name base ^ "_total" in
      header m "counter" (Printf.sprintf "SAGMA counter %s" base);
      line "%s%s %d" m (block labels) v);
  each
    (fun snap -> snap.Metrics.gauges)
    (fun base labels v ->
      let m = metric_name base in
      header m "gauge" (Printf.sprintf "SAGMA gauge %s" base);
      line "%s%s %d" m (block labels) v);
  each
    (fun snap -> snap.Metrics.histograms)
    (fun base labels h ->
      let m = metric_name base in
      header m "histogram" (Printf.sprintf "SAGMA histogram %s" base);
      let cum = ref 0 in
      Array.iteri
        (fun i n ->
          cum := !cum + n;
          let bound =
            if i < Array.length Metrics.bucket_bounds then Metrics.bucket_bounds.(i) else infinity
          in
          let le = Printf.sprintf "le=\"%s\"" (le_value bound) in
          line "%s_bucket%s %d" m (block (labels @ [ le ])) !cum)
        h.Metrics.h_counts;
      line "%s_sum%s %s" m (block labels) (float_value h.Metrics.h_sum);
      line "%s_count%s %d" m (block labels) h.Metrics.h_count;
      (* Quantile estimates as companion gauges (histogram series may not
         carry a `quantile` label themselves). *)
      List.iter
        (fun (suffix, q) ->
          let g = m ^ "_" ^ suffix in
          header g "gauge" (Printf.sprintf "SAGMA histogram quantile %s %s" base suffix);
          line "%s%s %s" g (block labels) (float_value (Metrics.quantile h q)))
        [ ("p50", 0.50); ("p95", 0.95); ("p99", 0.99) ]);
  Buffer.contents buf
