(* Tests for Sagma_pool: result ordering, exception propagation with
   backtraces, shutdown draining queued work, the inline workers=0 mode,
   and agreement between pooled and sequential aggregation. *)

module Pool = Sagma_pool.Pool
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
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

let () =
  Alcotest.run "pool"
    [ ( "pool",
        [ Alcotest.test_case "submit/await order" `Quick test_submit_await_order;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "shutdown drains queue" `Quick test_shutdown_drains_queue;
          Alcotest.test_case "inline workers=0" `Quick test_inline_mode ] );
      ( "aggregation",
        [ Alcotest.test_case "pooled = sequential" `Quick test_pooled_aggregate_matches ] ) ]
