(* The query router of a scatter-gather deployment: the fan-out a
   coordinator node serves its table requests through.

   It owns no rows: every table request is routed to a fleet of shard
   endpoints and the replies are combined. The interesting case is
   [Aggregate]: the fan-out queries all shards at once, each call on a
   thread of the calling domain, each shard pairs only the rows it owns
   (a storage node created with [?shard]), and the per-bucket level-2
   partial sums come back ⊕-mergeable — BGN ciphertexts are additively
   homomorphic — so the router combines them with
   {!Sagma.Scheme.merge_agg_results} using only the table's PUBLIC key
   and returns one [Aggregates] reply. The router never decrypts
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
   id. After the join, each shard's call time and EXPLAIN phase timings
   become spans of the router's request, rendering the distributed
   request as one tree: request → fanout → shard:N → remote:aggregate.

   One protocol version: coordinator and shards ship in the same build,
   so the router never negotiates. A shard built at another version
   answers [Failed Version_unsupported], which is reported like any
   other shard failure.

   The router is not a node of its own. The coordinator node is created
   with [~fleet] over a router: it answers Stats/Traces/Health itself
   (reading {!federated_snapshot}, {!topology} and {!shard_health}),
   runs the request pipeline (sampling, logging, audit, draining) and
   hands every table request to {!handle}.

   Fleet health: with [?probe_interval_ms] set, a background thread
   sends [Health] to every shard, maintaining per-shard state (up/down
   since, consecutive-failure streak, last error, EWMA probe RTT) that
   is served in [Health_report], exported as
   router.shard_up{shard="..."} gauges, and used to fast-fail fan-out
   calls to known-down shards (the prober keeps watching, so a
   recovered shard rejoins within one interval). Direct shard traffic
   feeds the same state opportunistically: a transport-level failure
   marks the shard down, any reply marks it up. *)

module P = Protocol
module Obs = Sagma_obs.Metrics
module Export = Sagma_obs.Export
module Trace = Sagma_obs.Trace
module Log = Sagma_obs.Log
module Audit = Sagma_obs.Audit
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
  (* The gate of [on_threads]: shard calls are admitted first come,
     first served, at most as many at once as there are shards.
     Overlapping queries would make each shard run both aggregations at
     once and answer both late; taking turns answers the first at its
     service time. *)
  gate : Mutex.t;
  turn : Condition.t;           (* broadcast whenever a call ends *)
  mutable tickets : int;        (* tickets handed out, one per call *)
  mutable finished : int;       (* calls that have ended *)
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
  probe_stop : bool Atomic.t;
  mutable probe_thread : Thread.t option;
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
  { lock = Mutex.create (); shards; gate = Mutex.create (); turn = Condition.create ();
    tickets = 0; finished = 0; pks = Hashtbl.create 8; pks_lock = Mutex.create ();
    row_counts = Hashtbl.create 8; deadline_ms; hlock = Mutex.create (); probe_interval_ms;
    probe_stop = Atomic.make false; probe_thread = None }

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
  Mutex.protect r.hlock (fun () ->
      Array.to_list
        (Array.mapi
           (fun i sh ->
             { P.shc_index = i; shc_endpoint = sh.sh_endpoint; shc_reachable = sh.sh_up;
               shc_since = sh.sh_since; shc_failures = sh.sh_failures;
               shc_last_error = sh.sh_last_error; shc_rtt_ms = sh.sh_rtt_ms })
           r.shards))

let down_count (r : t) : int =
  Mutex.protect r.hlock (fun () ->
      Array.fold_left (fun acc sh -> if sh.sh_up then acc else acc + 1) 0 r.shards)

(* --- shard calls ----------------------------------------------------------- *)

(* The shard calls' trace context: the traced request's id, sampling
   forced. Read on the request thread, never on a shard thread. *)
let trace_ctx () : P.trace_ctx option =
  Option.map (fun id -> { P.tc_id = Some id; tc_sampled = true }) (Trace.current_request_id ())

(* One shard exchange: fresh connection and the router's deadline on
   both directions. *)
let call_shard (r : t) (sh : shard) ~(trace : P.trace_ctx option) (req : P.request) :
    P.response * Trace.rtrace option =
  Obs.incr m_shard_calls;
  let deadline = float_of_int r.deadline_ms /. 1000. in
  let fd = Transport.connect ?host:sh.sh_host ~port:sh.sh_port () in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if deadline > 0. then
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO deadline
         with Unix.Unix_error _ | Invalid_argument _ -> ());
      Transport.call_x ?trace fd req)

(* [call_shard] with its health bookkeeping, shared by fan-out calls
   and probes: any decoded reply — even a [Failed] — proves the shard
   alive and marks it up; a transport-level failure (unreachable
   endpoint, deadline, malformed reply) bumps [errors], marks the shard
   down and comes back as [Error message]. *)
let exchange (r : t) (i : int) (sh : shard) ~(errors : Obs.counter) ~trace (req : P.request) :
    (P.response * Trace.rtrace option, string) result =
  let t0 = Unix.gettimeofday () in
  let down msg =
    Obs.incr errors;
    record_failure r i sh msg;
    Error msg
  in
  match call_shard r sh ~trace req with
  | reply ->
    record_success r i sh ((Unix.gettimeofday () -. t0) *. 1000.);
    Ok reply
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    down (Printf.sprintf "deadline exceeded after %d ms" r.deadline_ms)
  | exception Unix.Unix_error (e, _, _) -> down (Unix.error_message e)
  | exception (Failure msg | Sagma_wire.Wire.Decode_error msg) -> down msg

(* A fan-out call: every failure mode — unreachable endpoint, deadline,
   malformed reply, or the shard's own [Failed] — becomes a [Failed]
   response naming the shard, so the client always learns which node
   broke the query. An application-level failure from a live shard (no
   such table, bad request, ...) is not unhealth. When probing is on, a
   known-down shard is fast-failed without a connect attempt — the
   background prober notices recovery within one interval. *)
let safe_call (r : t) (i : int) (sh : shard) ~trace (req : P.request) :
    P.response * Trace.rtrace option =
  let label = shard_label i sh in
  if r.probe_interval_ms > 0 && not sh.sh_up then begin
    Obs.incr m_fast_fails;
    Obs.incr m_shard_errors;
    ( P.failed P.Internal_error "%s: down (%d consecutive failures): %s" label sh.sh_failures
        sh.sh_last_error,
      None )
  end
  else
    match exchange r i sh ~errors:m_shard_errors ~trace req with
    | Ok (P.Failed { code; message }, x) ->
      Obs.incr m_shard_errors;
      (P.Failed { code; message = Printf.sprintf "%s: %s" label message }, x)
    | Ok reply -> reply
    | Error msg -> (P.failed P.Internal_error "%s: %s" label msg, None)

(* Run [f i sh] for every shard at once, each on its own thread of the
   calling domain but the last, which the caller runs itself, and return
   the results in shard order; a shard whose thread cannot be started
   gets [Error message]. The threads share the caller's domain state, so
   [f] must open no span. The first exception a call raises is re-raised
   once every thread has joined.

   Every call passes the gate: the request thread takes one ticket per
   shard, consecutive, so its calls queue together, and a call runs once
   its ticket is below [finished] plus the shard count. Calls start in
   ticket order and at most that many run at once. *)
let on_threads (r : t) (f : int -> shard -> 'a) : ('a, string) result array =
  let n = Array.length r.shards in
  let first =
    Mutex.protect r.gate (fun () ->
        let t = r.tickets in
        r.tickets <- t + n;
        t)
  in
  let ended () =
    Mutex.protect r.gate (fun () ->
        r.finished <- r.finished + 1;
        Condition.broadcast r.turn)
  in
  let results = Array.make n (Error "not started") in
  let raised = Array.make n None in
  let start i sh =
    let run () =
      Mutex.protect r.gate (fun () ->
          while first + i >= r.finished + n do
            Condition.wait r.turn r.gate
          done);
      (try results.(i) <- Ok (f i sh)
       with e -> raised.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      ended ()
    in
    if i = n - 1 then (run (); None)
    else
      match Thread.create run () with
      | th -> Some th
      | exception e ->
        ended ();
        results.(i) <- Error (Printexc.to_string e);
        None
  in
  Array.iter (Option.iter Thread.join) (Array.mapi start r.shards);
  Array.iter (Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt)) raised;
  results

(* --- background probing ---------------------------------------------------- *)

(* One lightweight [Health] probe per shard. Runs outside [safe_call] so
   a probe is never itself fast-failed. *)
let probe_all (r : t) : unit =
  on_threads r (fun i sh ->
      Obs.incr m_probes;
      ignore (exchange r i sh ~errors:m_probe_failures ~trace:None P.Health))
  |> ignore

(* The probe loop runs on a thread of the calling domain, sleeping in
   short slices so shutdown stays prompt. *)
let start_probes (r : t) : unit =
  if r.probe_interval_ms > 0 && r.probe_thread = None then
    r.probe_thread <-
      Some
        (Thread.create (fun () ->
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
             loop ())
           ())

let shutdown (r : t) : unit =
  Atomic.set r.probe_stop true;
  Option.iter Thread.join r.probe_thread;
  r.probe_thread <- None

(* Query every shard at once through [on_threads]. After the join each
   shard gets a "shard:N" span under "fanout", timed by its thread, with
   a traced shard's EXPLAIN phase timings as "remote:..." children that
   end with the call — the cross-node stitch. *)
let fanout (r : t) (req : P.request) : (P.response * Trace.rtrace option) array =
  Obs.incr m_fanouts;
  Trace.with_span "fanout" @@ fun () ->
  let trace = trace_ctx () in
  let calls =
    on_threads r (fun i sh ->
        let t0 = Unix.gettimeofday () in
        let reply = safe_call r i sh ~trace req in
        (t0, Unix.gettimeofday (), reply))
  in
  Array.mapi
    (fun i call ->
      match call with
      | Ok (t0, t1, ((_, x) as reply)) ->
        let phases = match x with Some rt -> Trace.phase_timings rt.Trace.r_root | None -> [] in
        let remote (name, ms) =
          { Trace.name = "remote:" ^ name; t0 = t1 -. (ms /. 1000.); ms; children = [] }
        in
        Trace.attach_span
          { Trace.name = Printf.sprintf "shard:%d" i; t0; ms = (t1 -. t0) *. 1000.;
            children = List.map remote phases };
        reply
      | Error msg ->
        Obs.incr m_shard_errors;
        (P.failed P.Internal_error "%s: no thread: %s" (shard_label i r.shards.(i)) msg, None))
    calls

let first_failure (results : (P.response * Trace.rtrace option) array) : P.response option =
  Array.find_map
    (fun (resp, _) -> match resp with P.Failed _ -> Some resp | _ -> None)
    results

(* --- stats federation ------------------------------------------------------ *)

(* The coordinator's Stats reply covers the fleet: its own snapshot is
   ⊕-merged with every reachable shard's into unlabeled fleet
   aggregates, each shard's snapshot also rides along under its index,
   and the audit summary is the sum of its own and every reachable
   shard's (a coordinator probes and checks nothing itself). Unreachable
   or failing shards are skipped — a Stats scrape must degrade, never
   fail. *)
let federated_snapshot (r : t) :
    Obs.snapshot * (int * Obs.snapshot) list * Audit.summary =
  let reports =
    Array.to_list (fanout r P.Stats)
    |> List.mapi (fun i (resp, _) ->
           match resp with P.Stats_report rep -> Some (i, rep) | _ -> None)
    |> List.filter_map Fun.id
  in
  let add_audit (a : Audit.summary) (_, rep) =
    let b = rep.P.sr_audit in
    { Audit.s_requests = a.Audit.s_requests + b.Audit.s_requests;
      s_probes = a.s_probes + b.s_probes;
      s_checks_run = a.s_checks_run + b.s_checks_run;
      s_check_failures = a.s_check_failures + b.s_check_failures }
  in
  let shards = List.map (fun (i, rep) -> (i, rep.P.sr_snapshot)) reports in
  ( List.fold_left (fun acc (_, s) -> Obs.merge_snapshots acc s) (Obs.snapshot ()) shards,
    shards,
    List.fold_left add_audit (Audit.summary ()) reports )

let handle (r : t) (req : P.request) : P.response =
  match req with
  | P.Stats | P.Traces | P.Health ->
    (* Node requests: the coordinator node answers them itself. *)
    P.failed P.Bad_request "the router answers table requests only"
  | P.List_tables ->
    (* Replicas are identical by construction; one (live) shard speaks
       for the fleet. *)
    let i = Option.value ~default:0 (Array.find_index (fun sh -> sh.sh_up) r.shards) in
    fst (safe_call r i r.shards.(i) ~trace:(trace_ctx ()) P.List_tables)
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
      let part i = function
        | P.Aggregates a, _ -> Ok a
        | (P.Failed _ as f), _ -> Error f
        | _ ->
          Error
            (P.failed P.Internal_error "%s: unexpected reply to Aggregate"
               (shard_label i r.shards.(i)))
      in
      let parts = Array.to_list (Array.mapi part (fanout r req)) in
      match List.find_map (function Error f -> Some f | Ok _ -> None) parts with
      | Some f -> f
      | None ->
        (* ⊕-merge of the per-shard partials: public-key group
           operations only — the router cannot and does not decrypt. *)
        Obs.incr m_merges;
        P.Aggregates
          (Trace.with_span "merge" (fun () ->
               Scheme.merge_agg_results pk (List.filter_map Result.to_option parts))))
  end
