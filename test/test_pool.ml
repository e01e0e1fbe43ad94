(* Tests for Sagma_pool: result ordering, exception propagation with
   backtraces, shutdown draining queued work, the inline workers=0 mode,
   workers spawned on demand, job lists drained by the caller with
   helpers offered only to idle workers, and agreement between pooled
   and sequential aggregation. *)

module Pool = Sagma_pool.Pool
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module Metrics = Sagma_obs.Metrics
module Trace = Sagma_obs.Trace
open Sagma

let with_pool ?(workers = 2) f =
  let p = Pool.create ~name:"test" ~workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_submit_await_order () =
  with_pool (fun p ->
      let futs = List.init 50 (fun i -> Pool.submit p (fun () -> i * i)) in
      Alcotest.(check (list int))
        "each future carries its own task's result"
        (List.init 50 (fun i -> i * i))
        (List.map Pool.await futs))

exception Boom of int

let test_exception_propagation () =
  with_pool ~workers:1 (fun p ->
      let f = Pool.submit p (fun () -> raise (Boom 7)) in
      (match Pool.await f with
       | _ -> Alcotest.fail "await should re-raise the task's exception"
       | exception Boom 7 -> ());
      (* A failed task must not take its worker down with it. *)
      Alcotest.(check int) "worker survives" 42 (Pool.await (Pool.submit p (fun () -> 42))))

let test_shutdown_drains_queue () =
  let p = Pool.create ~name:"drain" ~workers:1 () in
  let ran = Atomic.make 0 in
  (* The first task parks the single worker long enough for the rest to
     still be queued when shutdown is called. *)
  let futs =
    List.init 10 (fun i ->
        Pool.submit p (fun () ->
            if i = 0 then Unix.sleepf 0.05;
            Atomic.incr ran))
  in
  Pool.shutdown p;
  List.iter Pool.await futs;
  Alcotest.(check int) "queued tasks ran before shutdown returned" 10 (Atomic.get ran);
  (match Pool.submit p (fun () -> ()) with
   | _ -> Alcotest.fail "submit after shutdown should be rejected"
   | exception Invalid_argument _ -> ());
  (* Second shutdown is a no-op, not a crash. *)
  Pool.shutdown p

let test_inline_mode () =
  with_pool ~workers:0 (fun p ->
      Alcotest.(check int) "workers 0 runs inline" 0 (Pool.workers p);
      let seen = ref false in
      let f = Pool.submit p (fun () -> seen := true; 9) in
      Alcotest.(check bool) "ran during submit" true !seen;
      Alcotest.(check int) "await sees result" 9 (Pool.await f))

(* Workers are spawned only when a task finds none idle, never beyond
   the pool's size. *)
let test_spawn_on_demand () =
  with_pool (fun p ->
      Alcotest.(check int) "no worker before the first task" 0 (Pool.live_workers p);
      Alcotest.(check int) "first task runs" 1 (Pool.await (Pool.submit p (fun () -> 1)));
      (* Tasks one at a time, each after the worker is back waiting,
         reuse it. *)
      for i = 1 to 3 do
        Unix.sleepf 0.02;
        Alcotest.(check int) "sequential task runs" i (Pool.await (Pool.submit p (fun () -> i)))
      done;
      Alcotest.(check int) "sequential tasks, one worker" 1 (Pool.live_workers p);
      let release = Atomic.make false in
      let started = Atomic.make 0 in
      let futs =
        List.init 3 (fun i ->
            Pool.submit p (fun () ->
                Atomic.incr started;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done;
                i))
      in
      let deadline = Unix.gettimeofday () +. 5. in
      while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "three blocked tasks, size-2 pool" 2 (Pool.live_workers p);
      Atomic.set release true;
      Alcotest.(check (list int)) "every task ran" [ 0; 1; 2 ] (List.map Pool.await futs))

(* [run_jobs] offers helpers only to workers that would sit idle: with
   both workers of a 2-worker pool held, every job runs on the caller
   and no helper task is submitted; with one held, exactly one is. *)
let test_helpers_only_for_idle_workers () =
  let tasks () =
    Option.value ~default:0 (List.assoc_opt "pool.tasks" (Metrics.snapshot ()).Metrics.counters)
  in
  let rec chunks (s : Trace.span) =
    (if s.Trace.name = "chunk" then 1 else 0)
    + List.fold_left (fun acc c -> acc + chunks c) 0 s.Trace.children
  in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.reset ())
  @@ fun () ->
  List.iter
    (fun held ->
      with_pool (fun p ->
          let release = Atomic.make false in
          let started = Atomic.make 0 in
          let holders =
            List.init held (fun _ ->
                Pool.submit p (fun () ->
                    Atomic.incr started;
                    while not (Atomic.get release) do
                      Unix.sleepf 0.001
                    done))
          in
          while Atomic.get started < held do
            Unix.sleepf 0.001
          done;
          let caller = Domain.self () in
          let before = tasks () in
          let on_caller, rt =
            Trace.with_request (fun () ->
                Pool.run_jobs (Some p) (Array.init 8 (fun _ () -> Domain.self () = caller)))
          in
          let offered = tasks () - before in
          Atomic.set release true;
          List.iter Pool.await holders;
          if held = 2 then begin
            Alcotest.(check int) "no helper submitted to a busy pool" 0 offered;
            Alcotest.(check bool) "every job ran on the caller" true
              (Array.for_all Fun.id on_caller);
            Alcotest.(check int) "no chunk span" 0 (chunks rt.Trace.r_root)
          end
          else Alcotest.(check int) "one helper for the one idle worker" 1 offered))
    [ 2; 1 ]

(* A job list on two workers: every job runs once, results come back in
   index order, and the inline path gives the same array. *)
let test_run_jobs () =
  with_pool (fun p ->
      let runs = Array.init 50 (fun _ -> Atomic.make 0) in
      let jobs =
        Array.init 50 (fun i () ->
            Atomic.incr runs.(i);
            Unix.sleepf 0.001;
            i * i)
      in
      let expected = Array.init 50 (fun i -> i * i) in
      Alcotest.(check (array int)) "results in index order" expected (Pool.run_jobs (Some p) jobs);
      Array.iteri
        (fun i n -> Alcotest.(check int) (Printf.sprintf "job %d ran once" i) 1 (Atomic.get n))
        runs;
      Alcotest.(check (array int)) "inline path" expected (Pool.run_jobs None jobs))

(* A job that raises on a helper is re-raised on the caller, and only
   once no helper is inside a job any more. *)
let test_run_jobs_helper_raises () =
  with_pool (fun p ->
      let caller = Domain.self () in
      let helped = Atomic.make false in
      let in_job = Atomic.make 0 in
      let jobs =
        Array.init 50 (fun _ () ->
            Atomic.incr in_job;
            Fun.protect
              ~finally:(fun () -> Atomic.decr in_job)
              (fun () ->
                if Domain.self () = caller then begin
                  (* Hold the caller back until a helper has a job. *)
                  let deadline = Unix.gettimeofday () +. 5. in
                  while (not (Atomic.get helped)) && Unix.gettimeofday () < deadline do
                    Unix.sleepf 0.001
                  done
                end
                else begin
                  Atomic.set helped true;
                  Unix.sleepf 0.02;
                  raise (Boom 3)
                end))
      in
      (match Pool.run_jobs (Some p) jobs with
       | _ -> Alcotest.fail "run_jobs should re-raise the helper's exception"
       | exception Boom 3 ->
         Alcotest.(check int) "every helper left its job first" 0 (Atomic.get in_job)))

(* The server-side aggregation path: a shared pool must produce the same
   aggregates as the sequential and owned-domains variants. *)
let test_pooled_aggregate_matches () =
  let schema : Table.schema =
    [ { Table.name = "v"; ty = Value.TInt }; { Table.name = "g"; ty = Value.TStr } ]
  in
  let d = Drbg.create "pool-agg-data" in
  let table =
    Table.of_rows schema
      (List.init 24 (fun _ ->
           [| Value.Int (Drbg.int_below d 50);
              Value.Str [| "x"; "y"; "z" |].(Drbg.int_below d 3) |]))
  in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~value_columns:[ "v" ]
      ~group_columns:[ "g" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:[ ("g", [ Value.Str "x"; Value.Str "y"; Value.Str "z" ]) ]
      (Drbg.create "pool-agg-client")
  in
  let enc = Scheme.encrypt_table client table in
  let q = Query.make ~group_by:[ "g" ] (Query.Sum "v") in
  let results qr =
    List.map (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count)) qr
  in
  let expected = results (Scheme.query client enc q) in
  let check_res = Alcotest.(check (list (triple (list string) int int))) in
  with_pool ~workers:2 (fun p ->
      check_res "shared pool" expected (results (Scheme.query ~pool:p client enc q));
      (* The pool survives a query and answers the next one too. *)
      check_res "shared pool, second query" expected
        (results (Scheme.query ~pool:p client enc q)))

(* A 2-row bucket, below any row split: its pairing jobs are still
   shared with a helper, and the reply is byte-for-byte the inline one,
   with level-1 and with paired counts, on a cold and a warm cache. *)
let test_small_bucket_shared () =
  let schema : Table.schema =
    [ { Table.name = "v"; ty = Value.TInt }; { Table.name = "g"; ty = Value.TStr } ]
  in
  let table =
    Table.of_rows schema [ [| Value.Int 10; Value.Str "x" |]; [| Value.Int 20; Value.Str "y" |] ]
  in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~value_columns:[ "v" ] ~group_columns:[ "g" ] ()
  in
  let client =
    Scheme.setup config ~domains:[ ("g", [ Value.Str "x"; Value.Str "y" ]) ]
      (Drbg.create "pool-small-client")
  in
  let tok = Scheme.token client (Query.make ~group_by:[ "g" ] (Query.Sum "v")) in
  let rec helper_spans (s : Trace.span) =
    (if s.Trace.name = "chunk" then 1 else 0)
    + List.fold_left (fun acc c -> acc + helper_spans c) 0 s.Trace.children
  in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.reset ())
  @@ fun () ->
  List.iter
    (fun (label, dummy_groups, mode) ->
      let enc = Scheme.encrypt_table ?dummy_groups client table in
      Alcotest.(check bool) (label ^ " mode") true (enc.Scheme.count_mode = mode);
      let bytes = Serialize.enc_table_to_string enc in
      let inline = Serialize.agg_result_to_string (Scheme.aggregate enc tok) in
      with_pool (fun p ->
          (* The caller may drain a short list before a helper wakes, so
             repeat, alternating a fresh decode (cold caches) with the
             warm table, until one has shared the work. *)
          let deadline = Unix.gettimeofday () +. 20. in
          let rec shared cold =
            let enc = if cold then Serialize.enc_table_of_string bytes else enc in
            let agg, rt = Trace.with_request (fun () -> Scheme.aggregate ~pool:p enc tok) in
            Alcotest.(check string) (label ^ ": pooled reply = inline reply") inline
              (Serialize.agg_result_to_string agg);
            if helper_spans rt.Trace.r_root = 0 then
              if Unix.gettimeofday () > deadline then
                Alcotest.fail (label ^ ": no job ran on a helper")
              else shared (not cold)
          in
          shared true))
    [ ("level-1 count", None, Scheme.Count_level1);
      ("paired count", Some [ [| Value.Str "x" |] ], Scheme.Count_paired) ]

let () =
  Alcotest.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "submit/await order" `Quick test_submit_await_order;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "shutdown drains queue" `Quick test_shutdown_drains_queue;
          Alcotest.test_case "inline workers=0" `Quick test_inline_mode;
          Alcotest.test_case "spawn on demand" `Quick test_spawn_on_demand;
          Alcotest.test_case "helpers only for idle workers" `Quick
            test_helpers_only_for_idle_workers;
          Alcotest.test_case "run_jobs order, once each" `Quick test_run_jobs;
          Alcotest.test_case "run_jobs helper raise" `Quick test_run_jobs_helper_raises ] );
      ( "aggregation",
        [ Alcotest.test_case "pooled = sequential" `Quick test_pooled_aggregate_matches;
          Alcotest.test_case "2-row bucket shared, same bytes" `Quick test_small_bucket_shared ] ) ]
