(* Metrics registry: named monotonic counters and value histograms.

   Counters are Atomic cells so the multi-domain aggregation path can
   bump them without tearing; histograms guard their running stats with a
   mutex and are only used on coarse paths. The [enabled] flag is read on
   every recording call, so instrumentation left in hot code costs one
   load-and-branch while disabled (the default). *)

type counter = { c_name : string; c_slot : int; cell : int Atomic.t }

(* Fixed exponential bucket grid shared by every histogram: upper bounds
   0.001 · 2^i. Observations are milliseconds or small cardinalities, so
   the grid spans sub-microsecond to ~10⁶ with one array index; the last
   slot of [buckets] is the +∞ overflow bucket. A fixed grid keeps
   [observe] allocation-free, and since every node shares it, a
   snapshot carries only the raw counts and histograms merge by adding
   them. *)
let bucket_bounds : float array = Array.init 31 (fun i -> 0.001 *. (2. ** float_of_int i))
let num_buckets = Array.length bucket_bounds + 1

(* Index of the first bucket whose upper bound holds [v] (binary search:
   observe sits on instrumented paths). *)
let bucket_index (v : float) : int =
  if v > bucket_bounds.(Array.length bucket_bounds - 1) then Array.length bucket_bounds
  else begin
    let lo = ref 0 and hi = ref (Array.length bucket_bounds - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bucket_bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

type histogram = {
  h_name : string;
  lock : Mutex.t;
  mutable obs_count : int;
  mutable obs_sum : float;
  mutable obs_min : float;
  mutable obs_max : float;
  buckets : int array;  (* per-bucket (non-cumulative) counts *)
}

(* Gauges are level measurements (in-flight connections, queue depth):
   unlike counters they go down as well as up, and a zero reading can be
   meaningful, so [snapshot] keeps any gauge that has ever been touched. *)
type gauge = { g_name : string; g_cell : int Atomic.t; g_touched : bool Atomic.t }

let enabled = ref false
let set_enabled b = enabled := b

(* --- per-request cost scopes ---------------------------------------------- *)

(* The §6 cost model is about a single query, but the registry counters
   are process-global: under a domain pool several requests bump the same
   cells at once, so global deltas no longer attribute work to a request.
   A scope is a small fixed vector with one slot per cost-block entry;
   while one is installed (domain-locally, see {!scope_swap}) every
   [incr]/[add] on a counter an entry lists also lands in that entry's
   slot. The vector is atomic because one request's aggregation chunks
   bump counters from several pool domains that all inherit the same
   scope.

   This table is the whole cost block: an entry reaches EXPLAIN, the
   slow-query log and the trace export by being listed here. *)

let scope_blocks : (string * string list) list =
  [ ("pairings", [ "pairing.pairings" ]); ("miller_steps", [ "pairing.miller_steps" ]);
    ("bgn_mul", [ "bgn.mul" ]); ("dlog_solves", [ "bgn.dlog.solves" ]);
    ("dlog_giant_steps", [ "bgn.dlog.giant_steps" ]);
    ("sse_postings", [ "sse.postings_scanned"; "oxt.postings_scanned" ]);
    ("agg_rows", [ "scheme.agg.rows" ]); ("agg_buckets", [ "scheme.agg.joint_buckets" ]);
    ("prod_calls", [ "pairing.prod_calls" ]); ("precomp_hits", [ "pairing.precomp_hits" ]);
    ("invm", [ "bigint.invm" ]); ("invm_batch", [ "bigint.invm_batch" ]) ]

type scope = int Atomic.t array

(* The slot of the entry listing registry counter [name], or -1. *)
let scope_slot (name : string) : int =
  let rec go i = function
    | [] -> -1
    | (_, counters) :: rest -> if List.mem name counters then i else go (i + 1) rest
  in
  go 0 scope_blocks

let active_scope : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scope_create () : scope = Array.init (List.length scope_blocks) (fun _ -> Atomic.make 0)

let scope_swap (s : scope option) : scope option =
  let r = Domain.DLS.get active_scope in
  let prev = !r in
  r := s;
  prev

let scope_current () : scope option = !(Domain.DLS.get active_scope)

let scope_counts (s : scope) : (string * int) list =
  List.mapi (fun i (name, _) -> (name, Atomic.get s.(i))) scope_blocks

let scope_bump (slot : int) (n : int) : unit =
  if slot >= 0 then
    match !(Domain.DLS.get active_scope) with
    | Some s -> ignore (Atomic.fetch_and_add s.(slot) n)
    | None -> ()

(* Registration: idempotent by name so instrumented libraries can
   register at init time and tests can look the same cells up later. *)
let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.lock registry_lock;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = { c_name = name; c_slot = scope_slot name; cell = Atomic.make 0 } in
      Hashtbl.add counters name c;
      c
  in
  Mutex.unlock registry_lock;
  c

let histogram name =
  Mutex.lock registry_lock;
  let h =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
      let h =
        { h_name = name; lock = Mutex.create (); obs_count = 0; obs_sum = 0.;
          obs_min = infinity; obs_max = neg_infinity; buckets = Array.make num_buckets 0 }
      in
      Hashtbl.add histograms name h;
      h
  in
  Mutex.unlock registry_lock;
  h

let gauge name =
  Mutex.lock registry_lock;
  let g =
    match Hashtbl.find_opt gauges name with
    | Some g -> g
    | None ->
      let g = { g_name = name; g_cell = Atomic.make 0; g_touched = Atomic.make false } in
      Hashtbl.add gauges name g;
      g
  in
  Mutex.unlock registry_lock;
  g

let incr c =
  if !enabled then begin
    Atomic.incr c.cell;
    scope_bump c.c_slot 1
  end

let add c n =
  if !enabled then begin
    ignore (Atomic.fetch_and_add c.cell n);
    scope_bump c.c_slot n
  end

let gauge_add g n =
  if !enabled then begin
    Atomic.set g.g_touched true;
    ignore (Atomic.fetch_and_add g.g_cell n)
  end

let gauge_incr g = gauge_add g 1
let gauge_decr g = gauge_add g (-1)

let gauge_set g v =
  if !enabled then begin
    Atomic.set g.g_touched true;
    Atomic.set g.g_cell v
  end

let gauge_value g = Atomic.get g.g_cell

let observe h v =
  if !enabled then begin
    Mutex.lock h.lock;
    h.obs_count <- h.obs_count + 1;
    h.obs_sum <- h.obs_sum +. v;
    if v < h.obs_min then h.obs_min <- v;
    if v > h.obs_max then h.obs_max <- v;
    let bi = bucket_index v in
    h.buckets.(bi) <- h.buckets.(bi) + 1;
    Mutex.unlock h.lock
  end

let observe_ms h f =
  if not !enabled then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> observe h ((Unix.gettimeofday () -. t0) *. 1000.))
      f
  end

let value c = Atomic.get c.cell

(* --- snapshots ----------------------------------------------------------- *)

type hist_stats = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_counts : int array;
}

(* Quantile estimate from the bucket counts, Prometheus
   histogram_quantile style: find the bucket holding the q·count-th
   observation and interpolate linearly inside it. The overflow bucket
   has no upper bound, so estimates landing there (and interpolations
   past the observed extremes) are clamped to [min, max]. *)
let quantile (h : hist_stats) (q : float) : float =
  let counts = h.h_counts in
  let rank = q *. float_of_int h.h_count in
  let rec go i cum =
    if i >= Array.length counts then h.h_max
    else begin
      let cum' = cum + counts.(i) in
      if float_of_int cum' >= rank && counts.(i) > 0 then begin
        if i >= Array.length bucket_bounds then h.h_max
        else begin
          let lower = if i = 0 then 0. else bucket_bounds.(i - 1) in
          let upper = bucket_bounds.(i) in
          let frac = (rank -. float_of_int cum) /. float_of_int counts.(i) in
          Float.min h.h_max (Float.max h.h_min (lower +. ((upper -. lower) *. frac)))
        end
      end
      else go (i + 1) cum'
    end
  in
  go 0 0

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_stats) list;
}

let snapshot () : snapshot =
  Mutex.lock registry_lock;
  let cs =
    Hashtbl.fold
      (fun name c acc ->
        let v = Atomic.get c.cell in
        if v = 0 then acc else (name, v) :: acc)
      counters []
    |> List.sort compare
  in
  let gs =
    Hashtbl.fold
      (fun name g acc ->
        if Atomic.get g.g_touched then (name, Atomic.get g.g_cell) :: acc else acc)
      gauges []
    |> List.sort compare
  in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        Mutex.lock h.lock;
        let stats =
          if h.obs_count = 0 then None
          else
            Some
              { h_count = h.obs_count; h_sum = h.obs_sum; h_min = h.obs_min; h_max = h.obs_max;
                h_counts = Array.copy h.buckets }
        in
        Mutex.unlock h.lock;
        match stats with None -> acc | Some s -> (name, s) :: acc)
      histograms []
    |> List.sort compare
  in
  Mutex.unlock registry_lock;
  { counters = cs; gauges = gs; histograms = hs }

(* --- fleet federation --------------------------------------------------------

   A coordinator merges its shards' snapshots into one fleet view:
   counters and gauges sum pointwise by name, histograms add their
   bucket counts (every histogram shares the fixed grid). *)

let merge_assoc (a : (string * int) list) (b : (string * int) list) : (string * int) list =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v + (match Hashtbl.find_opt tbl k with Some v0 -> v0 | None -> 0)))
    (a @ b);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)

let merge_hist_stats (a : hist_stats) (b : hist_stats) : hist_stats =
  if a.h_count = 0 then b
  else if b.h_count = 0 then a
  else
    { h_count = a.h_count + b.h_count; h_sum = a.h_sum +. b.h_sum;
      h_min = Float.min a.h_min b.h_min; h_max = Float.max a.h_max b.h_max;
      h_counts = Array.map2 ( + ) a.h_counts b.h_counts }

let merge_snapshots (a : snapshot) (b : snapshot) : snapshot =
  let merge_hists xs ys =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (k, h) ->
        Hashtbl.replace tbl k
          (match Hashtbl.find_opt tbl k with None -> h | Some h0 -> merge_hist_stats h0 h))
      (xs @ ys);
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
  in
  { counters = merge_assoc a.counters b.counters; gauges = merge_assoc a.gauges b.gauges;
    histograms = merge_hists a.histograms b.histograms }

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
  Hashtbl.iter
    (fun _ g ->
      Atomic.set g.g_cell 0;
      Atomic.set g.g_touched false)
    gauges;
  Hashtbl.iter
    (fun _ h ->
      Mutex.lock h.lock;
      h.obs_count <- 0;
      h.obs_sum <- 0.;
      h.obs_min <- infinity;
      h.obs_max <- neg_infinity;
      Array.fill h.buckets 0 (Array.length h.buckets) 0;
      Mutex.unlock h.lock)
    histograms;
  Mutex.unlock registry_lock

let pp_snapshot fmt (s : snapshot) =
  Format.fprintf fmt "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf fmt "%-36s %12d@," name v) s.counters;
  List.iter (fun (name, v) -> Format.fprintf fmt "%-36s %12d (gauge)@," name v) s.gauges;
  List.iter
    (fun (name, h) ->
      Format.fprintf fmt "%-36s n=%d sum=%.3f min=%.3f max=%.3f mean=%.3f p50=%.3f p95=%.3f p99=%.3f@,"
        name h.h_count h.h_sum h.h_min h.h_max
        (h.h_sum /. float_of_int h.h_count)
        (quantile h 0.50) (quantile h 0.95) (quantile h 0.99))
    s.histograms;
  Format.fprintf fmt "@]"

(* --- JSON export ---------------------------------------------------------- *)

let snapshot_to_json (s : snapshot) : Json.t =
  let ints l = Json.Obj (List.map (fun (name, v) -> (name, Json.int v)) l) in
  let hist h =
    Json.Obj
      [ ("count", Json.int h.h_count); ("sum", Num h.h_sum); ("min", Num h.h_min);
        ("max", Num h.h_max); ("mean", Num (h.h_sum /. float_of_int h.h_count));
        ("p50", Num (quantile h 0.50)); ("p95", Num (quantile h 0.95));
        ("p99", Num (quantile h 0.99)) ]
  in
  Obj
    [ ("counters", ints s.counters); ("gauges", ints s.gauges);
      ("histograms", Obj (List.map (fun (name, h) -> (name, hist h)) s.histograms)) ]
