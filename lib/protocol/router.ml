(* The query router of a scatter-gather deployment: the fan-out a
   coordinator node serves its table requests through.

   It owns no rows: every table request is routed to a fleet of shard
   endpoints and the replies are combined. The interesting case is
   [Aggregate]: the fan out queries all shards concurrently (over
   {!Sagma_pool}), each shard pairs only the rows it owns (a storage
   node created with [?shard]), and the per-bucket level-2 partial
   sums come back ⊕-mergeable — BGN
   ciphertexts are additively homomorphic — so the router combines them
   with {!Sagma.Scheme.merge_agg_results} using only the table's PUBLIC
   key and returns one [Aggregates] reply. The router never decrypts
   anything (it has no secret key to decrypt with); the client pays a
   single decrypt, same as against one server.

   Storage is replicated: [Upload] and [Append] fan to every shard (the
   SSE index is PRF-opaque, so rows cannot be partitioned server-side),
   with appends stamped with the coordinator's global row id so
   replicas stay aligned and the owning shard — [row_id mod count] — is
   deterministic.

   Tracing: when the router's own request is sampled, each shard call
   carries the router's trace id as its trace context (with the
   sampling flag forced), so coordinator and shards record the same
   id; the shard's EXPLAIN phase timings are grafted back under the
   router's per-shard span, rendering the distributed request as one
   tree: request → fanout → shard:N → remote:aggregate.

   One protocol version: coordinator and shards ship in the same build,
   so the router never negotiates. A shard built at another version
   answers [Failed Version_unsupported], which is reported like any
   other shard failure.

   The router is not a node of its own. The coordinator node is created
   with [~fleet] over a router: it answers Stats/Traces/Health itself
   (reading {!federated_snapshot}, {!topology} and {!shard_health}),
   runs the request pipeline (sampling, logging, audit, draining) and
   hands every table request to {!handle}.

   Fleet health: with [?probe_interval_ms] set, a background domain
   sends [Health] to every shard on a small dedicated {!Sagma_pool},
   maintaining per-shard state (up/down since, consecutive-failure
   streak, last error, EWMA probe RTT) that is served in
   [Health_report], exported as router.shard_up{shard="..."} gauges,
   and used to fast-fail fan-out calls to known-down shards (the prober
   keeps watching, so a recovered shard rejoins within one interval).
   Direct shard traffic feeds the same state opportunistically: a
   transport-level failure marks the shard down, any reply marks it
   up. *)

module P = Protocol
module Obs = Sagma_obs.Metrics
module Export = Sagma_obs.Export
module Trace = Sagma_obs.Trace
module Log = Sagma_obs.Log
module Pool = Sagma_pool.Pool
module Scheme = Sagma.Scheme
module Bgn = Sagma.Scheme.Bgn

let m_fanouts = Obs.counter "router.fanouts"
let m_shard_calls = Obs.counter "router.shard_calls"
let m_shard_errors = Obs.counter "router.shard_errors"
let m_merges = Obs.counter "router.merges"
let m_probes = Obs.counter "router.probes"
let m_probe_failures = Obs.counter "router.probe_failures"
let m_fast_fails = Obs.counter "router.fast_fails"

type shard = {
  sh_endpoint : string;          (* as configured, for messages/topology *)
  sh_host : string option;       (* None = loopback *)
  sh_port : int;
  (* Health state, guarded by the router's [hlock] (not the request
     lock — probes must never wait on an in-flight append fan-out). *)
  mutable sh_up : bool;
  mutable sh_since : float;      (* epoch seconds of the last up/down transition *)
  mutable sh_failures : int;     (* consecutive probe/call failures *)
  mutable sh_last_error : string;
  mutable sh_rtt_ms : float;     (* EWMA probe RTT; 0. before the first sample *)
  sh_up_gauge : Obs.gauge;       (* router.shard_up{endpoint=...,shard=...} ∈ {0,1} *)
}

type t = {
  lock : Mutex.t;  (* serialises appends: row-id stamping order *)
  shards : shard array;
  pool : Pool.t;  (* fan-out pool — distinct from any connection-serving pool *)
  (* Per-table state gleaned from the uploads that passed through: the
     BGN public key (all ⊕-merging needs) and the global row count
     (appends are stamped with it so every replica agrees on ids). *)
  pks : (string, Bgn.public_key) Hashtbl.t;
  pks_lock : Mutex.t;  (* apart from [lock], so queries never wait behind an append *)
  row_counts : (string, int) Hashtbl.t;
  deadline_ms : int;
  (* Fleet health. *)
  hlock : Mutex.t;
  probe_interval_ms : int;          (* 0 = probing (and fast-fail) off *)
  probe_pool : Pool.t option;
  probe_stop : bool Atomic.t;
  mutable probe_domain : unit Domain.t option;
}

(* "host:port" (host optional — ":7501" or "7501" mean loopback). *)
let parse_endpoint (ep : string) : string option * int =
  let bad () = invalid_arg (Printf.sprintf "Router: bad shard endpoint %S (want host:port)" ep) in
  let host, port_s =
    match String.rindex_opt ep ':' with
    | Some i -> (String.sub ep 0 i, String.sub ep (i + 1) (String.length ep - i - 1))
    | None -> ("", ep)
  in
  match int_of_string_opt port_s with
  | Some p when p > 0 && p < 65536 -> ((if host = "" then None else Some host), p)
  | _ -> bad ()

let shard_label (i : int) (sh : shard) : string =
  Printf.sprintf "shard %d (%s)" i sh.sh_endpoint

(* Forward declaration dance is avoided by defining the probe loop after
   [call_shard]; [create] stores the domain once spawned. *)
let create ?(deadline_ms = 5000) ?(probe_interval_ms = 0) (endpoints : string list) : t =
  if endpoints = [] then invalid_arg "Router.create: need at least one shard endpoint";
  let now = Unix.gettimeofday () in
  let shards =
    Array.of_list
      (List.mapi
         (fun i ep ->
           let sh_host, sh_port = parse_endpoint ep in
           (* Labeled gauge: the exposition page serves one
              router_shard_up series per shard. Endpoints are
              operator-supplied strings, hence the escaping in
              [Export.labeled]. *)
           let g =
             Obs.gauge
               (Export.labeled "router.shard_up"
                  [ ("shard", string_of_int i); ("endpoint", ep) ])
           in
           Obs.gauge_set g 1;
           (* Optimistic start: a shard is presumed up until a probe or
              call says otherwise, so a freshly booted fleet is never
              fast-failed before its first probe. *)
           { sh_endpoint = ep; sh_host; sh_port; sh_up = true;
             sh_since = now; sh_failures = 0; sh_last_error = ""; sh_rtt_ms = 0.;
             sh_up_gauge = g })
         endpoints)
  in
  let workers = min (Array.length shards) 8 in
  { lock = Mutex.create (); shards; pool = Pool.create ~name:"fanout" ~workers ();
    pks = Hashtbl.create 8; pks_lock = Mutex.create (); row_counts = Hashtbl.create 8;
    deadline_ms; hlock = Mutex.create (); probe_interval_ms;
    probe_pool =
      (if probe_interval_ms > 0 then
         Some (Pool.create ~name:"probe" ~workers:(min (Array.length shards) 4) ())
       else None);
    probe_stop = Atomic.make false; probe_domain = None }

let topology (r : t) : P.topology =
  { P.tp_role = "coordinator"; tp_shard_index = -1; tp_shard_count = Array.length r.shards;
    tp_shards = Array.to_list (Array.map (fun s -> s.sh_endpoint) r.shards) }

(* --- per-shard health state ------------------------------------------------ *)

let ewma_alpha = 0.3

let record_success (r : t) (i : int) (sh : shard) (rtt_ms : float) : unit =
  Mutex.lock r.hlock;
  let was_down = not sh.sh_up in
  sh.sh_up <- true;
  if was_down then sh.sh_since <- Unix.gettimeofday ();
  sh.sh_failures <- 0;
  sh.sh_rtt_ms <-
    (if sh.sh_rtt_ms = 0. then rtt_ms
     else ((1. -. ewma_alpha) *. sh.sh_rtt_ms) +. (ewma_alpha *. rtt_ms));
  Mutex.unlock r.hlock;
  Obs.gauge_set sh.sh_up_gauge 1;
  if was_down then
    Log.info "shard_up"
      ~fields:[ Log.int "shard" i; Log.str "endpoint" sh.sh_endpoint ]

let record_failure (r : t) (i : int) (sh : shard) (msg : string) : unit =
  Mutex.lock r.hlock;
  let was_up = sh.sh_up in
  sh.sh_up <- false;
  if was_up then sh.sh_since <- Unix.gettimeofday ();
  sh.sh_failures <- sh.sh_failures + 1;
  sh.sh_last_error <- msg;
  let failures = sh.sh_failures in
  Mutex.unlock r.hlock;
  Obs.gauge_set sh.sh_up_gauge 0;
  if was_up then
    Log.warn "shard_down"
      ~fields:
        [ Log.int "shard" i; Log.str "endpoint" sh.sh_endpoint; Log.str "error" msg;
          Log.int "failures" failures ]

let shard_health (r : t) : P.shard_health list =
  Mutex.lock r.hlock;
  let out =
    Array.to_list
      (Array.mapi
         (fun i sh ->
           { P.shc_index = i; shc_endpoint = sh.sh_endpoint; shc_reachable = sh.sh_up;
             shc_since = sh.sh_since; shc_failures = sh.sh_failures;
             shc_last_error = sh.sh_last_error; shc_rtt_ms = sh.sh_rtt_ms })
         r.shards)
  in
  Mutex.unlock r.hlock;
  out

let down_count (r : t) : int =
  Mutex.lock r.hlock;
  let n = Array.fold_left (fun acc sh -> if sh.sh_up then acc else acc + 1) 0 r.shards in
  Mutex.unlock r.hlock;
  n

(* --- shard calls ----------------------------------------------------------- *)

(* One shard exchange: fresh connection and the router's deadline on
   both directions. *)
let call_shard (r : t) (sh : shard) (req : P.request) : P.response * P.explain option =
  Obs.incr m_shard_calls;
  let trace =
    match Trace.current_request_id () with
    | Some id -> Some { P.tc_id = Some id; tc_sampled = true }
    | None -> None
  in
  let deadline = float_of_int r.deadline_ms /. 1000. in
  let fd = Transport.connect ?host:sh.sh_host ~port:sh.sh_port () in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if deadline > 0. then
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO deadline
         with Unix.Unix_error _ | Invalid_argument _ -> ());
      Transport.send fd (P.encode_request ?trace req);
      P.decode_response_x (Transport.recv fd))

(* [call_shard] with every failure mode — unreachable endpoint,
   deadline, malformed reply, or the shard's own [Failed] — turned into
   a [Failed] response naming the shard, so the client always learns
   which node broke the query. Transport-level failures mark the shard
   down for the prober; any decoded reply marks it up. When probing is
   on, a known-down shard is fast-failed without a connect attempt —
   the background prober notices recovery within one interval. *)
let safe_call (r : t) (i : int) (sh : shard) (req : P.request) :
    P.response * P.explain option =
  let label = shard_label i sh in
  if r.probe_interval_ms > 0 && not sh.sh_up then begin
    Obs.incr m_fast_fails;
    Obs.incr m_shard_errors;
    ( P.failed P.Internal_error "%s: down (%d consecutive failures): %s" label sh.sh_failures
        sh.sh_last_error,
      None )
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let lived () = record_success r i sh ((Unix.gettimeofday () -. t0) *. 1000.) in
    match call_shard r sh req with
    | P.Failed { code; message }, x ->
      (* An application-level failure from a live shard (no such table,
         bad request, ...) is not unhealth — the shard answered. *)
      Obs.incr m_shard_errors;
      lived ();
      (P.Failed { code; message = Printf.sprintf "%s: %s" label message }, x)
    | resp, x ->
      lived ();
      (resp, x)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Obs.incr m_shard_errors;
      let msg = Printf.sprintf "deadline exceeded after %d ms" r.deadline_ms in
      record_failure r i sh msg;
      (P.failed P.Internal_error "%s: %s" label msg, None)
    | exception Unix.Unix_error (e, _, _) ->
      Obs.incr m_shard_errors;
      let msg = Unix.error_message e in
      record_failure r i sh msg;
      (P.failed P.Internal_error "%s: %s" label msg, None)
    | exception (Failure msg | Sagma_wire.Wire.Decode_error msg) ->
      Obs.incr m_shard_errors;
      record_failure r i sh msg;
      (P.failed P.Internal_error "%s: %s" label msg, None)
  end

(* --- background probing ---------------------------------------------------- *)

(* One lightweight [Health] probe. Runs outside [safe_call] so a probe
   is never itself fast-failed. *)
let probe_shard (r : t) (i : int) (sh : shard) : unit =
  Obs.incr m_probes;
  let t0 = Unix.gettimeofday () in
  let finish_ok () = record_success r i sh ((Unix.gettimeofday () -. t0) *. 1000.) in
  let failed msg =
    Obs.incr m_probe_failures;
    record_failure r i sh msg
  in
  match call_shard r sh P.Health with
  | _, _ ->
    (* Any decoded reply — Health_report, even a Failed — proves the
       shard is alive and answering. *)
    finish_ok ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    failed (Printf.sprintf "deadline exceeded after %d ms" r.deadline_ms)
  | exception Unix.Unix_error (e, _, _) -> failed (Unix.error_message e)
  | exception (Failure msg | Sagma_wire.Wire.Decode_error msg) -> failed msg

let probe_all (r : t) : unit =
  match r.probe_pool with
  | None -> ()
  | Some pool ->
    let futures =
      Array.mapi (fun i sh -> Pool.submit pool (fun () -> probe_shard r i sh)) r.shards
    in
    Array.iter Pool.await futures

(* The probe loop runs on its own domain (never a pool task — it awaits
   pool futures), sleeping in short slices so shutdown stays prompt. *)
let start_probes (r : t) : unit =
  if r.probe_interval_ms > 0 && r.probe_domain = None then
    r.probe_domain <-
      Some
        (Domain.spawn (fun () ->
             let slice = 0.05 in
             let interval = float_of_int r.probe_interval_ms /. 1000. in
             let rec nap left =
               if left > 0. && not (Atomic.get r.probe_stop) then begin
                 Unix.sleepf (Float.min slice left);
                 nap (left -. slice)
               end
             in
             let rec loop () =
               if not (Atomic.get r.probe_stop) then begin
                 (try probe_all r with _ -> ());
                 nap interval;
                 loop ()
               end
             in
             loop ()))

let shutdown (r : t) : unit =
  Atomic.set r.probe_stop true;
  (match r.probe_domain with
   | Some d ->
     r.probe_domain <- None;
     Domain.join d
   | None -> ());
  (match r.probe_pool with Some p -> Pool.shutdown p | None -> ());
  Pool.shutdown r.pool

(* Query every shard concurrently on the fan-out pool. Each call runs
   under a "shard:N" span (the pool inherits the router's trace
   context, so these land under "fanout" in the request tree), and a
   traced shard's EXPLAIN phase timings are grafted back as
   "remote:..." child spans — the cross-node stitch. *)
let fanout (r : t) (req : P.request) : (P.response * P.explain option) array =
  Obs.incr m_fanouts;
  Trace.with_span "fanout" @@ fun () ->
  let futures =
    Array.mapi
      (fun i sh ->
        Pool.submit r.pool (fun () ->
            Trace.with_span (Printf.sprintf "shard:%d" i) (fun () ->
                let ((_, x) as result) = safe_call r i sh req in
                (match x with
                 | Some { P.x_timings; _ } ->
                   List.iter
                     (fun (name, ms) ->
                       Trace.attach_span
                         { Trace.name = "remote:" ^ name;
                           t0 = Unix.gettimeofday () -. (ms /. 1000.); ms; children = [] })
                     x_timings
                 | None -> ());
                result)))
      r.shards
  in
  Array.map Pool.await futures

let first_failure (results : (P.response * P.explain option) array) : P.response option =
  Array.find_map
    (fun (resp, _) -> match resp with P.Failed _ -> Some resp | _ -> None)
    results

(* --- stats federation ------------------------------------------------------ *)

(* Rename every series of a shard's snapshot into its labeled form:
   proto.requests → proto.requests{shard="1"}. *)
let label_snapshot (i : int) (s : Obs.snapshot) : Obs.snapshot =
  let tag name = Export.labeled name [ ("shard", string_of_int i) ] in
  { Obs.counters = List.map (fun (n, v) -> (tag n, v)) s.Obs.counters;
    gauges = List.map (fun (n, v) -> (tag n, v)) s.Obs.gauges;
    histograms = List.map (fun (n, h) -> (tag n, h)) s.Obs.histograms }

(* The coordinator's Stats reply covers the fleet: its own snapshot is
   ⊕-merged with every reachable shard's into unlabeled fleet
   aggregates, and each shard's snapshot additionally rides along as
   {shard="i"}-labeled series. Unreachable or failing shards are
   skipped — a Stats scrape must degrade, never fail. *)
let federated_snapshot (r : t) : Obs.snapshot =
  let own = Obs.snapshot () in
  let results = fanout r P.Stats in
  let fleet = ref own in
  let labeled = ref [] in
  Array.iteri
    (fun i (resp, _) ->
      match resp with
      | P.Stats_report rep ->
        fleet := Obs.merge_snapshots !fleet rep.P.sr_snapshot;
        labeled := label_snapshot i rep.P.sr_snapshot :: !labeled
      | _ -> ())
    results;
  List.fold_left
    (fun acc s ->
      { Obs.counters = acc.Obs.counters @ s.Obs.counters;
        gauges = acc.Obs.gauges @ s.Obs.gauges;
        histograms = acc.Obs.histograms @ s.Obs.histograms })
    !fleet (List.rev !labeled)

let handle (r : t) (req : P.request) : P.response =
  match req with
  | P.Stats | P.Traces | P.Health ->
    (* Node requests: the coordinator node answers them itself. *)
    P.failed P.Bad_request "the router answers table requests only"
  | P.List_tables ->
    (* Replicas are identical by construction; one (live) shard speaks
       for the fleet. *)
    let i =
      let n = Array.length r.shards in
      let rec find k = if k >= n then 0 else if r.shards.(k).sh_up then k else find (k + 1) in
      find 0
    in
    fst (safe_call r i r.shards.(i) P.List_tables)
  | P.Upload { name; table } -> (
    let results = fanout r req in
    match first_failure results with
    | Some f -> f
    | None ->
      (* Remember what ⊕-merging and append stamping need: the
         table's public key and its global row count. *)
      Mutex.protect r.pks_lock (fun () ->
          Hashtbl.replace r.pks name table.Scheme.pp.Scheme.bgn_pk);
      Mutex.protect r.lock (fun () ->
          Hashtbl.replace r.row_counts name (Array.length table.Scheme.rows));
      P.Ack)
  | P.Drop name -> (
    let results = fanout r req in
    Mutex.protect r.pks_lock (fun () -> Hashtbl.remove r.pks name);
    Mutex.protect r.lock (fun () -> Hashtbl.remove r.row_counts name);
    match first_failure results with Some f -> f | None -> P.Ack)
  | P.Append { name; row; keywords; row_id = _ } ->
    (* The whole read-stamp-fanout-commit holds the lock so concurrent
       appends through the router get distinct row ids in order. Queries
       read [pks] under [pks_lock] and never wait on it. *)
    Mutex.protect r.lock (fun () ->
        match Hashtbl.find_opt r.row_counts name with
        | None ->
          P.failed P.No_such_table
            "no such table %S (uploads must pass through this coordinator)" name
        | Some next -> (
          let stamped = P.Append { name; row; keywords; row_id = Some next } in
          let results = fanout r stamped in
          match first_failure results with
          | Some f -> f
          | None ->
            Hashtbl.replace r.row_counts name (next + 1);
            P.Ack))
  | P.Aggregate { name; _ } -> begin
    match Mutex.protect r.pks_lock (fun () -> Hashtbl.find_opt r.pks name) with
    | None ->
      P.failed P.No_such_table
        "no such table %S (uploads must pass through this coordinator)" name
    | Some pk -> (
      let results = fanout r req in
      let parts = ref [] in
      let failure = ref None in
      Array.iteri
        (fun i (resp, _) ->
          match (resp, !failure) with
          | _, Some _ -> ()
          | P.Aggregates a, None -> parts := a :: !parts
          | (P.Failed _ as f), None -> failure := Some f
          | _, None ->
            failure :=
              Some
                (P.failed P.Internal_error "%s: unexpected reply to Aggregate"
                   (shard_label i r.shards.(i))))
        results;
      match !failure with
      | Some f -> f
      | None ->
        (* ⊕-merge of the per-shard partials: public-key group
           operations only — the router cannot and does not decrypt. *)
        Obs.incr m_merges;
        P.Aggregates
          (Trace.with_span "merge" (fun () ->
               Scheme.merge_agg_results pk (List.rev !parts))))
  end
