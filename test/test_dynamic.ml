(* Regression tests for the §3.3 dynamically-shifted construction
   (append-then-query: aggregates must track the growing row set) and
   for the leakage profile (bucket-level access patterns of permuted
   tables are equal up to the permutation — leakage must not depend on
   anything beyond what §4.2's L declares). *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

(* --- Dynamic: append then query ---------------------------------------------- *)

let dyn_domain = [ str "male"; str "female"; str "other" ]

let dyn_client () =
  Dynamic.setup ~bgn_bits:64 ~value_bits:12 ~channel_bits:8 ~bucket_size:2
    ~domain:dyn_domain (Drbg.create "dynamic-append")

let dyn_results c rows =
  let aggs = Dynamic.aggregate c rows in
  let dec = Dynamic.decrypt c aggs ~total_rows:(List.length rows) in
  List.sort compare
    (List.map (fun r -> (Value.to_string r.Dynamic.group, r.Dynamic.sum, r.Dynamic.count)) dec)

let plain_results tuples =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, g) ->
      let s, c = try Hashtbl.find tbl g with Not_found -> (0, 0) in
      Hashtbl.replace tbl g (s + v, c + 1))
    tuples;
  List.sort compare (Hashtbl.fold (fun g (s, c) acc -> (g, s, c) :: acc) tbl [])

let test_dynamic_append_then_query () =
  let c = dyn_client () in
  let initial = [ (10, "male"); (20, "female"); (5, "male") ] in
  let enc_of = List.map (fun (v, g) -> Dynamic.enc_row c ~value:v ~group:(str g)) in
  let rows = enc_of initial in
  Alcotest.(check (list (triple string int int)))
    "initial aggregate" (plain_results initial) (dyn_results c rows);
  (* Append one row per bucket boundary case: an existing group, a group
     unseen so far, and a second append to the same group. *)
  let appended = initial @ [ (7, "male") ] in
  let rows = rows @ enc_of [ (7, "male") ] in
  Alcotest.(check (list (triple string int int)))
    "after appending to an existing group" (plain_results appended) (dyn_results c rows);
  let appended = appended @ [ (13, "other") ] in
  let rows = rows @ enc_of [ (13, "other") ] in
  Alcotest.(check (list (triple string int int)))
    "after appending a new group" (plain_results appended) (dyn_results c rows);
  let appended = appended @ [ (0, "other"); (40, "female") ] in
  let rows = rows @ enc_of [ (0, "other"); (40, "female") ] in
  Alcotest.(check (list (triple string int int)))
    "after a batch append" (plain_results appended) (dyn_results c rows)

let test_dynamic_append_zero_rows () =
  let c = dyn_client () in
  Alcotest.(check (list (triple string int int))) "empty table" [] (dyn_results c []);
  let rows = [ Dynamic.enc_row c ~value:9 ~group:(str "female") ] in
  Alcotest.(check (list (triple string int int)))
    "first append into empty table"
    [ ("female", 9, 1) ]
    (dyn_results c rows)

(* --- Scheme-level append then query (the protocol path) ----------------------- *)

let schema : Table.schema =
  [ { Table.name = "v"; ty = Value.TInt }; { Table.name = "g"; ty = Value.TStr } ]

let test_scheme_append_then_query () =
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~value_columns:[ "v" ]
      ~group_columns:[ "g" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:[ ("g", [ str "x"; str "y"; str "z" ]) ]
      (Drbg.create "append-regression")
  in
  let table =
    Table.of_rows schema [ [| vi 10; str "x" |]; [| vi 20; str "y" |]; [| vi 1; str "x" |] ]
  in
  let enc = Scheme.encrypt_table client table in
  let q = Query.make ~group_by:[ "g" ] (Query.Sum "v") in
  let results enc =
    List.sort compare
      (List.map
         (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
         (Scheme.query client enc q))
  in
  Alcotest.(check (list (triple (list string) int int)))
    "before append"
    [ ([ "x" ], 11, 2); ([ "y" ], 20, 1) ]
    (results enc);
  let enc = Scheme.append_row client enc ~values:[| 5 |] ~groups:[| str "z" |] ~filters:[] in
  let enc = Scheme.append_row client enc ~values:[| 100 |] ~groups:[| str "x" |] ~filters:[] in
  Alcotest.(check (list (triple (list string) int int)))
    "after appends"
    [ ([ "x" ], 111, 3); ([ "y" ], 20, 1); ([ "z" ], 5, 1) ]
    (results enc)

(* --- Leakage: bucket patterns of permuted tables ------------------------------ *)

let leak_config =
  Config.make ~bucket_size:2 ~max_group_attrs:1 ~filter_columns:[ "f" ]
    ~value_columns:[ "v" ] ~group_columns:[ "g" ] ()

let leak_schema : Table.schema =
  [ { Table.name = "v"; ty = Value.TInt };
    { Table.name = "g"; ty = Value.TStr };
    { Table.name = "f"; ty = Value.TInt } ]

let leak_rows =
  [ [| vi 10; str "x"; vi 0 |]; [| vi 20; str "y"; vi 1 |]; [| vi 30; str "z"; vi 0 |];
    [| vi 40; str "x"; vi 1 |]; [| vi 50; str "y"; vi 0 |]; [| vi 60; str "x"; vi 0 |] ]

(* A fixed non-trivial permutation: row i of the permuted table is row
   [perm.(i)] of the original. *)
let perm = [| 4; 2; 0; 5; 1; 3 |]

let leak_queries = [ Query.make ~group_by:[ "g" ] (Query.Sum "v");
                     Query.make ~where:[ ("f", vi 0) ] ~group_by:[ "g" ] (Query.Sum "v") ]

let profile_of rows =
  (* Same seed → same keys: only the row order differs between the two
     profiles. *)
  let client =
    Scheme.setup leak_config
      ~domains:[ ("g", [ str "x"; str "y"; str "z" ]) ]
      (Drbg.create "leakage-perm")
  in
  let enc = Scheme.encrypt_table client (Table.of_rows leak_schema rows) in
  let tokens = List.map (Scheme.token client) leak_queries in
  Leakage.profile enc tokens

let test_leakage_permutation_equivariant () =
  let base = profile_of leak_rows in
  let permuted = profile_of (List.map (fun i -> List.nth leak_rows i) (Array.to_list perm)) in
  Alcotest.(check int) "num rows" base.Leakage.num_rows permuted.Leakage.num_rows;
  Alcotest.(check int) "index size" base.Leakage.index_size permuted.Leakage.index_size;
  (* inv.(orig_row) = permuted_row *)
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun permuted_row orig_row -> inv.(orig_row) <- permuted_row) perm;
  List.iter2
    (fun qb qp ->
      List.iter2
        (fun (ob : Leakage.sse_observation) (op : Leakage.sse_observation) ->
          (* Search pattern: the same keyword produces the same tag. *)
          Alcotest.(check string) "token tag" ob.Leakage.token_tag op.Leakage.token_tag;
          (* Access pattern: the same row set, renamed by the permutation —
             the bucket pattern itself (set sizes per keyword) is
             invariant. *)
          Alcotest.(check (list int)) "bucket pattern"
            (List.sort compare (List.map (fun r -> inv.(r)) ob.Leakage.matches))
            (List.sort compare op.Leakage.matches))
        qb.Leakage.observations qp.Leakage.observations)
    base.Leakage.queries permuted.Leakage.queries

let test_leakage_value_independent () =
  (* Same groups/filters, different values: the leakage profile must be
     bit-for-bit identical in everything L declares. *)
  let bump = List.map (function
      | [| Value.Int v; g; f |] -> [| vi (v + 7); g; f |]
      | _ -> assert false)
  in
  let base = profile_of leak_rows in
  let bumped = profile_of (bump leak_rows) in
  List.iter2
    (fun qb qp ->
      List.iter2
        (fun (ob : Leakage.sse_observation) (op : Leakage.sse_observation) ->
          Alcotest.(check string) "token tag" ob.Leakage.token_tag op.Leakage.token_tag;
          Alcotest.(check (list int)) "matches" ob.Leakage.matches op.Leakage.matches)
        qb.Leakage.observations qp.Leakage.observations)
    base.Leakage.queries bumped.Leakage.queries

let () =
  Alcotest.run "dynamic"
    [ ( "dynamic-append",
        [ Alcotest.test_case "append then query" `Quick test_dynamic_append_then_query;
          Alcotest.test_case "append into empty" `Quick test_dynamic_append_zero_rows;
          Alcotest.test_case "scheme append then query" `Quick test_scheme_append_then_query ] );
      ( "leakage",
        [ Alcotest.test_case "permutation equivariant" `Quick
            test_leakage_permutation_equivariant;
          Alcotest.test_case "value independent" `Quick test_leakage_value_independent ] ) ]
