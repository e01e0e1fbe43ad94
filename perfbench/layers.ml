(* Per-layer metrics of a traced run. Each one is timed by the benchmark
   around calls into one module's public functions, on the workload's
   own key, table and token; counts come from the Sagma_obs counters,
   enabled in this process only while an in-process replay runs. *)

module Scheme = Sagma.Scheme
module Z = Sagma_bigint.Bigint
module Nat = Sagma_bigint.Nat
module Montgomery = Sagma_bigint.Montgomery
module Fp2 = Sagma_pairing.Fp2
module Curve = Sagma_pairing.Curve
module Pairing = Sagma_pairing.Pairing
module Bgn = Sagma_bgn.Bgn
module Crt = Sagma_bgn.Crt_channels
module Sse = Sagma_sse.Sse
module Metrics = Sagma_obs.Metrics
module P = Sagma_protocol.Protocol
module Server = Sagma_protocol.Server
module Router = Sagma_protocol.Router
module Transport = Sagma_protocol.Transport
module W = Workload

let now = Unix.gettimeofday

type sample = {
  secs : float list;  (** per call, one entry per repetition *)
  words : float;  (** minor words per call, median over repetitions *)
}

(* Time [f]. The first call sets how many calls make up one repetition
   (enough for about a millisecond, so nanosecond operations are not lost
   in clock resolution); then come five repetitions, and more until a
   quarter second has passed. Slow calls get fewer, since at 1024-bit
   keys one aggregation takes seconds: three from 0.1 s, two from 1 s.
   [warm] runs [f] once first, untimed, for calls whose first run fills
   a cache. *)
let measure ?(warm = false) f =
  if warm then ignore (Sys.opaque_identity (f ()));
  let timed inner =
    let w0 = Gc.minor_words () and t0 = now () in
    for _ = 1 to inner do
      ignore (Sys.opaque_identity (f ()))
    done;
    let n = float_of_int inner in
    ((now () -. t0) /. n, (Gc.minor_words () -. w0) /. n)
  in
  let ((first, _) as s1) = timed 1 in
  let inner = if first >= 1e-3 then 1 else min 100_000 (int_of_float (1e-3 /. Float.max first 1e-8)) in
  let min_reps, budget = if first >= 1. then (2, 0.) else if first >= 0.1 then (3, 0.) else (5, 0.25) in
  let samples = ref (if inner = 1 then [ s1 ] else []) in
  let stop = now () +. budget in
  while List.length !samples < min_reps || (now () < stop && List.length !samples < 500) do
    samples := timed inner :: !samples
  done;
  { secs = List.map fst !samples; words = Stats.median (List.map snd !samples) }

let med s = Stats.median s.secs

(* Time several calls round-robin, one of each per round, starting each
   round one call later so no call always runs first: two rounds when a
   round takes 4 s or more (1024-bit keys), three from 1 s, else five. Differences between them
   (the server's pipeline around Scheme.aggregate, a TCP call around the
   server's handling) are then taken under the same machine speed, which
   drifts on a shared host. *)
let interleaved (fs : (unit -> unit) list) : sample list =
  let fs = Array.of_list fs in
  let n = Array.length fs in
  let once f =
    let w0 = Gc.minor_words () and t0 = now () in
    f ();
    (now () -. t0, Gc.minor_words () -. w0)
  in
  let round r =
    let out = Array.make n (0., 0.) in
    for k = 0 to n - 1 do
      let i = (r + k) mod n in
      out.(i) <- once fs.(i)
    done;
    out
  in
  let first = round 0 in
  let first_s = Array.fold_left (fun a (t, _) -> a +. t) 0. first in
  let rounds = if first_s >= 4. then 2 else if first_s >= 1. then 3 else 5 in
  let all = first :: List.init (rounds - 1) (fun r -> round (r + 1)) in
  List.init n (fun i ->
      let xs = List.map (fun r -> r.(i)) all in
      { secs = List.map fst xs; words = Stats.median (List.map snd xs) })

let expect_ack what = function
  | P.Ack -> ()
  | r -> failwith (Printf.sprintf "%s: %s" what (W.describe_failure r))

let counter snap name = float_of_int (Option.value (List.assoc_opt name snap.Metrics.counters) ~default:0)

(* The counters the aggregation cost model multiplies by rung costs. *)
let agg_counters =
  [ "sse.postings_scanned"; "bgn.smul1"; "bgn.add1"; "bgn.add2"; "pairing.pairings";
    "pairing.prod_calls"; "pairing.precomp_hits" ]

let measure_all (ctx : W.context) : (string * float) list * Json.t =
  let spec = ctx.W.spec in
  let c = ctx.setup.W.client and enc = ctx.setup.W.enc in
  let pk = c.Scheme.pp.Scheme.bgn_pk in
  let group = pk.Bgn.group in
  let p = group.Pairing.p and n = Bgn.n pk in
  let drbg = W.drbg spec ctx.seed "layers" in
  let rng = Sagma_crypto.Drbg.rng drbg in
  let rows = Array.length enc.Scheme.rows in
  let q = W.query spec ctx.seed ~conn:0 0 in
  let tok = Scheme.token c q in
  let detail = ref [] in
  (* [record name scale s]: the median of [s] in the metric's unit
     ([scale] per second), kept with its quartiles and repetitions. *)
  let record name scale s =
    let v = med s *. scale in
    let q1, q3 = Stats.quartiles s.secs in
    detail :=
      ( name,
        Json.Obj
          [ ("value", Json.Num v); ("q1", Json.Num (q1 *. scale)); ("q3", Json.Num (q3 *. scale));
            ("k", Json.Num (float_of_int (List.length s.secs))) ] )
      :: !detail;
    v
  in
  let derived name v =
    detail := (name, Json.Obj [ ("value", Json.Num v) ]) :: !detail;
    v
  in
  let ns = 1e9 and us = 1e6 and ms = 1e3 in
  let words name s = ignore (derived name s.words) in
  (* Arithmetic, bottom up. *)
  (let nat z = Nat.of_bytes_be (Z.to_bytes_be z) in
   let mc = Montgomery.make (nat p) in
   let a = Montgomery.to_mont mc (nat (Z.random_below rng p))
   and b = Montgomery.to_mont mc (nat (Z.random_below rng p)) in
   let s = measure (fun () -> Montgomery.mont_mul mc a b) in
   ignore (record "bigint.mont_mul_ns" ns s);
   words "bigint.mont_mul_minor_words" s);
  let fp2_ns =
    let x = Fp2.make ~p (Z.random_below rng p) (Z.random_below rng p)
    and y = Fp2.make ~p (Z.random_below rng p) (Z.random_below rng p) in
    let s = measure (fun () -> Fp2.mul ~p x y) in
    words "pairing.fp2_mul_minor_words" s;
    record "pairing.fp2_mul_ns" ns s
  in
  (let k = Z.random_below rng n in
   ignore
     (record "pairing.curve_mul_us" us (measure (fun () -> Curve.mul group.Pairing.curve k pk.Bgn.g))));
  (* Miller loop and final exponentiation: one pairing_prod call costs
     intercept + slope * pairs. Repeating a few precomputed arguments
     costs the same per pair as distinct ones. *)
  let miller_us, final_exp_us =
    let row i = enc.Scheme.rows.(i mod rows) in
    let pres = Array.init (min 4 rows) (fun i -> Bgn.precompute1 pk (row i).Scheme.values.(0).(0)) in
    let at b =
      let pairs = List.init b (fun i -> (pres.(i mod Array.length pres), (row i).Scheme.count_ct)) in
      let s = measure (fun () -> Pairing.pairing_prod group pairs) in
      ((float_of_int b, med s *. us), s.words)
    in
    let (p1, w1), (p4, _), (p16, w16) = (at 1, at 4, at 16) in
    let slope, intercept = Stats.fit_line [ p1; p4; p16 ] in
    ignore (derived "pairing.prod_minor_words_per_pair" ((w16 -. w1) /. 15.));
    (derived "pairing.miller_us_per_pair" slope, derived "pairing.final_exp_us" intercept)
  in
  let ct = enc.Scheme.rows.(0).Scheme.values.(0).(0) in
  ignore (record "bgn.enc1_us" us (measure (fun () -> Bgn.enc1_int pk drbg 7)));
  let precompute1_us = record "bgn.precompute1_us" us (measure (fun () -> Bgn.precompute1 pk ct)) in
  (* The scalars the query's indicator polynomials multiply monomial
     ciphertexts by: a ladder's cost follows its scalar, and half of
     these are tiny. *)
  let smul1_us =
    let bucket_size = c.Scheme.pp.Scheme.config.Sagma.Config.bucket_size in
    let arity = Array.length tok.Scheme.group_columns in
    let coeffs =
      List.init (int_of_float (float_of_int bucket_size ** float_of_int arity)) (fun bi ->
          Sagma.Polynomial.multivariate_indicator ~n ~bucket_size
            (Scheme.block_vector ~bucket_size ~arity bi))
      |> List.concat
      |> List.filter_map (fun (t : Sagma.Polynomial.term) ->
             if Array.exists (fun e -> e <> 0) t.exponents then Some t.coeff else None)
    in
    let per_call = us /. float_of_int (List.length coeffs) in
    record "bgn.smul1_us" per_call
      (measure (fun () -> List.iter (fun k -> ignore (Bgn.smul1 pk k ct)) coeffs))
  in
  let add1_us =
    let ct2 = enc.Scheme.rows.(0).Scheme.count_ct in
    record "bgn.add1_us" us (measure (fun () -> Bgn.add1 pk ct ct2))
  in
  (* The dlog table a SUM over this table decrypts its widest channel
     with, and one solve against it. *)
  let dlog_build_ms =
    let d = Array.fold_left max 0 c.Scheme.pp.Scheme.channels.Crt.moduli in
    let max = rows * (d - 1) in
    let table = ref (Bgn.make_dec2_table c.Scheme.kp ~max) in
    let build = measure (fun () -> table := Bgn.make_dec2_table c.Scheme.kp ~max) in
    let c2 = Bgn.enc2 pk drbg (Z.of_int (max / 3)) in
    ignore (record "bgn.dlog_solve_us" us (measure (fun () -> Bgn.dec2 c.Scheme.kp !table ~max c2)));
    record "bgn.dlog_table_build_ms" ms build
  in
  (* SSE: the query's bucket token with the longest posting list. *)
  let sse_us_per_posting =
    let tokens =
      match tok.Scheme.source with
      | Scheme.Per_attribute_tokens cols -> Array.to_list (Array.concat (Array.to_list cols))
      | Scheme.Joint_tokens _ | Scheme.Oxt_tokens _ -> []
    in
    let postings t = List.length (Sse.search enc.Scheme.index t) in
    match List.sort (fun a b -> compare (postings b) (postings a)) tokens with
    | t :: _ when postings t > 0 ->
      record "sse.search_us_per_posting"
        (us /. float_of_int (postings t))
        (measure (fun () -> Sse.search enc.Scheme.index t))
    | _ -> derived "sse.search_us_per_posting" 0.
  in
  (* Scheme: one query's client and server steps. The first aggregation
     fills this table copy's precompute cache. *)
  let token_ms = record "scheme.token_ms" ms (measure (fun () -> Scheme.token c q)) in
  let agg = Scheme.aggregate enc tok in
  let decrypt_ms =
    record "scheme.decrypt_ms" ms (measure (fun () -> Scheme.decrypt c tok agg ~total_rows:rows))
  in
  ignore
    (derived "scheme.encrypt_row_ms" (1000. *. Stats.median ctx.setup.W.encrypt_s /. float_of_int rows));
  let args = W.payload_args spec ctx.table in
  let values, groups, filters = args (List.hd (Sagma_db.Table.rows ctx.table)) in
  ignore
    (record "scheme.append_payload_ms" ms
       (measure (fun () -> Scheme.append_payload c ~values ~groups ~filters)));
  (* Two partials with every bucket in both: what a 2-shard merge adds. *)
  ignore (record "scheme.merge_us" us (measure (fun () -> Scheme.merge_agg_results pk [ agg; agg ])));
  (* Codec. *)
  let agg_req = P.Aggregate { name = "layers"; token = tok } in
  let agg_frame = P.encode_request agg_req in
  let reply_frame = P.encode_response (P.Aggregates agg) in
  ignore (record "protocol.encode_request_us" us (measure (fun () -> P.encode_request agg_req)));
  ignore (record "protocol.decode_reply_us" us (measure (fun () -> P.decode_response reply_frame)));
  let req_decode_s = med (measure (fun () -> P.decode_request agg_frame)) in
  let reply_encode_s = med (measure (fun () -> P.encode_response (P.Aggregates agg))) in
  ignore
    (record "protocol.upload_decode_ms_per_row" (ms /. float_of_int rows)
       (measure (fun () -> P.decode_request ctx.setup.W.upload_frame)));
  (* The server pipeline in process, on the bench's (warm) table copy. *)
  let in_process ?shard () =
    let st = Server.create ?shard () in
    expect_ack "in-process upload" (Server.handle st (P.Upload { name = "layers"; table = enc }));
    st
  in
  let st = in_process () in
  let append_req =
    let row, keywords = Scheme.append_payload c ~values ~groups ~filters in
    P.Append { name = "layers"; row; keywords; row_id = None }
  in
  (let frame = P.encode_request append_req and st = in_process () in
   ignore (record "server.handle_append_ms" ms (measure (fun () -> Server.handle_encoded st frame))));
  (* One interleaved group: the aggregation in process, the server's
     handling of the same frame in process, a router in this process
     over the storage processes, (sharded) one shard's slice in process,
     and each storage process called directly. The router's upload gives
     the storage processes a cold copy; one call through it warms them. *)
  let router =
    Router.create ~deadline_ms:120_000 (List.map (fun s -> string_of_int s.Procs.port) ctx.storage)
  in
  let fds = List.map (fun s -> Transport.connect ~port:s.Procs.port ()) ctx.storage in
  let shard_st = if spec.W.shards = 0 then None else Some (in_process ~shard:(0, spec.W.shards) ()) in
  let call f () = ignore (f ()) in
  let timings =
    Fun.protect
      ~finally:(fun () ->
        Router.shutdown router;
        List.iter Unix.close fds)
      (fun () ->
        expect_ack "router upload" (Router.handle router (P.Upload { name = "layers"; table = enc }));
        ignore (Router.handle router agg_req);
        let t =
          interleaved
            ([ call (fun () -> Scheme.aggregate enc tok);
               call (fun () -> Server.handle_encoded st agg_frame);
               call (fun () -> Router.handle router agg_req) ]
            @ (match shard_st with
              | Some s -> [ call (fun () -> Server.handle_encoded s agg_frame) ]
              | None -> [])
            @ List.map (fun fd -> call (fun () -> Transport.call fd agg_req)) fds)
        in
        ignore (record "router.append_ms" ms (measure (fun () -> Router.handle router append_req)));
        t)
  in
  let agg_sample, handle_sample, router_sample, rest =
    match timings with a :: h :: r :: rest -> (a, h, r, rest) | _ -> assert false
  in
  let aggregate_ms = record "scheme.aggregate_ms" ms agg_sample in
  words "scheme.aggregate_minor_words" agg_sample;
  let handle_ms = record "server.handle_aggregate_ms" ms handle_sample in
  ignore
    (derived "server.pipeline_overhead_ms"
       (handle_ms -. aggregate_ms -. (1000. *. (req_decode_s +. reply_encode_s))));
  let router_ms = record "router.aggregate_ms" ms router_sample in
  (* A storage process's call minus the same handling in process: a
     single server is [st] itself; a shard pairs only its own slice. *)
  let local_ms, direct =
    match (shard_st, rest) with
    | Some _, local :: direct -> (med local *. ms, List.map (fun s -> med s *. ms) direct)
    | _ -> (handle_ms, List.map (fun s -> med s *. ms) rest)
  in
  ignore (derived "router.fanout_overhead_ms" (router_ms -. List.fold_left Float.max 0. direct));
  ignore (derived "transport.call_overhead_ms" (List.hd direct -. local_ms));
  (* An idle call the clients' way: a single server holds the same rows
     under both names; the coordinator holds the workload's grown table. *)
  let idle_call_ms =
    if spec.W.shards = 0 then List.hd direct
    else
      let fd = Transport.connect ~port:ctx.entry.Procs.port () in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let req = P.Aggregate { name = W.table_name; token = tok } in
          med (measure (fun () -> Transport.call fd req)) *. ms)
  in
  (* Replay the workload's operation mix in process with the counters
     on: each cycle's appends, then its query, against a fresh in-process
     server holding the bench's table. The aggregations are timed and
     their counter deltas kept apart from the appends'. *)
  let cycles = if spec.W.bits > 64 then 1 else 3 in
  let agg_delta = Hashtbl.create 8 and agg_s = ref 0. in
  let replay_snap =
    let st = in_process () in
    let rc = { c with Scheme.drbg = W.drbg spec ctx.seed "replay" } in
    let pool = W.append_pool spec ctx.seed ~conn:0 in
    let query_of = W.query spec ctx.seed ~conn:0 in
    let total = ref rows in
    Metrics.reset ();
    Metrics.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled false)
      (fun () ->
        for i = 1 to cycles do
          for k = 1 to spec.W.appends_per_query do
            let values, groups, filters = args pool.((i * spec.W.appends_per_query) + k) in
            let row, keywords = Scheme.append_payload rc ~values ~groups ~filters in
            expect_ack "replay append"
              (Server.handle st (P.Append { name = "layers"; row; keywords; row_id = None }));
            incr total
          done;
          let tok = Scheme.token rc (query_of i) in
          let before = Metrics.snapshot () and t0 = now () in
          let resp = Server.handle st (P.Aggregate { name = "layers"; token = tok }) in
          agg_s := !agg_s +. (now () -. t0);
          let after = Metrics.snapshot () in
          List.iter
            (fun name ->
              Hashtbl.replace agg_delta name
                (counter after name -. counter before name
                +. Option.value (Hashtbl.find_opt agg_delta name) ~default:0.))
            agg_counters;
          match resp with
          | P.Aggregates a -> ignore (Scheme.decrypt rc tok a ~total_rows:!total)
          | r -> failwith ("replay query: " ^ W.describe_failure r)
        done;
        Metrics.snapshot ())
  in
  let per_query name = Option.value (Hashtbl.find_opt agg_delta name) ~default:0. /. float_of_int cycles in
  let pairings = derived "pairing.pairings_per_query" (per_query "pairing.pairings") in
  ignore
    (derived "pairing.precomp_hit_ratio"
       (if pairings = 0. then 0. else per_query "pairing.precomp_hits" /. pairings));
  ignore (derived "sse.postings_per_query" (per_query "sse.postings_scanned"));
  let builds =
    derived "bgn.dlog_table_builds_per_query"
      (counter replay_snap "bgn.dlog.table_builds" /. float_of_int cycles)
  in
  (* Cost model, as in the paper's Table 10 accounting: a replayed
     aggregation's counts times each rung's cost should add up to its
     measured time. What is left over is time no rung explains. *)
  let rungs =
    [ ("sse.search", per_query "sse.postings_scanned" *. sse_us_per_posting);
      ("bgn.smul1", per_query "bgn.smul1" *. smul1_us);
      ("bgn.add1", per_query "bgn.add1" *. add1_us);
      ("bgn.add2", per_query "bgn.add2" *. fp2_ns /. 1000.);
      ("pairing.miller", pairings *. miller_us);
      ("pairing.final_exp", per_query "pairing.prod_calls" *. final_exp_us);
      ("bgn.precompute1", (pairings -. per_query "pairing.precomp_hits") *. precompute1_us) ]
  in
  let measured_us = us *. !agg_s /. float_of_int cycles in
  let predicted_us = List.fold_left (fun a (_, v) -> a +. v) 0. rungs in
  let residual_pct =
    derived "scheme.aggregate_residual_pct" (100. *. (measured_us -. predicted_us) /. measured_us)
  in
  if Float.abs residual_pct > 15. then
    Printf.printf "%s: missing rung: %.1f%% of Scheme.aggregate is not explained by the ladder\n"
      spec.W.name residual_pct;
  (* Time a query waited under load: its median minus the same steps
     unloaded (token, an idle call, decrypt, and the dlog tables the
     workload's queries build). *)
  let latencies traced =
    List.filter_map
      (fun (r : W.qrec) ->
        if r.W.q_traced = traced && Result.is_ok r.W.q_answer then Some (1000. *. r.W.q_latency) else None)
      ctx.timed.W.queries
  in
  let p50_untraced = Stats.median (latencies false) in
  ignore
    (derived "load.wait_ms"
       (p50_untraced -. (token_ms +. idle_call_ms +. decrypt_ms +. (builds *. dlog_build_ms))));
  ignore
    (derived "trace.overhead_pct"
       (100. *. (Stats.median (latencies true) -. p50_untraced) /. p50_untraced));
  ( List.rev_map (fun (name, d) -> (name, Option.get (Json.to_float (Json.member "value" d)))) !detail,
    Json.Obj
      [ ( "metrics",
          Json.Obj
            (List.rev_map
               (fun (name, d) ->
                 let l = List.find (fun l -> l.Catalog.lname = name) Catalog.layers in
                 ( name,
                   Json.Obj
                     (Json.to_assoc d
                     @ [ ("unit", Json.Str l.Catalog.lunit); ("module", Json.Str l.Catalog.modl);
                         ("moves", Json.Str l.Catalog.moves) ]) ))
               !detail) );
        ( "aggregate_cost_model_us",
          Json.Obj
            (("measured", Json.Num measured_us) :: List.map (fun (name, v) -> (name, Json.Num v)) rungs) );
        ("missing_rung", Json.Bool (Float.abs residual_pct > 15.)) ] )
