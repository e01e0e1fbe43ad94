(* End-to-end tests of the full SAGMA scheme (Algorithms 1–6) against the
   plaintext executor oracle, including the paper's worked example
   (Tables 1–7, Listings 1–2), filters, dummy rows and value splits. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Executor = Sagma_db.Executor
module Drbg = Sagma_crypto.Drbg
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

(* --- the paper's example table (Table 1) --------------------------------- *)

let example_schema : Table.schema =
  [ { Table.name = "ID"; ty = Value.TInt };
    { Table.name = "Salary"; ty = Value.TInt };
    { Table.name = "Gender"; ty = Value.TStr };
    { Table.name = "Name"; ty = Value.TStr };
    { Table.name = "Department"; ty = Value.TStr } ]

let example_table =
  Table.of_rows example_schema
    [ [| vi 1; vi 1000; str "male"; str "Henry"; str "Sales" |];
      [| vi 2; vi 5000; str "female"; str "Jessica"; str "Sales" |];
      [| vi 3; vi 1500; str "female"; str "Alice"; str "Finance" |];
      [| vi 4; vi 3000; str "male"; str "Bob"; str "Sales" |];
      [| vi 5; vi 2000; str "male"; str "Paul"; str "Facility" |] ]

let gender_domain = [ str "male"; str "female" ]
let department_domain = [ str "Sales"; str "Finance"; str "Facility" ]

(* Mapping strategy pinning the paper's §3.4 example: f1(male)=0,
   f1(female)=1; f2(Sales)=0, f2(Finance)=1, f2(Facility)=2; B=2. *)
let paper_mappings = function
  | "Gender" -> Mapping.Explicit gender_domain
  | "Department" -> Mapping.Explicit department_domain
  | _ -> Mapping.Prf_random

let example_config =
  Config.make ~bucket_size:2 ~max_group_attrs:2 ~filter_columns:[ "Department"; "Name" ]
    ~value_columns:[ "Salary" ] ~group_columns:[ "Gender"; "Department" ] ()

let example_client =
  Scheme.setup ~mapping_strategy:paper_mappings example_config
    ~domains:[ ("Gender", gender_domain); ("Department", department_domain) ]
    (Drbg.create "sagma-tests")

let example_enc = Scheme.encrypt_table example_client example_table

let results_to_list rs =
  List.map (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count)) rs

let oracle_to_list rs =
  List.map (fun r -> (List.map Value.to_string r.Executor.group, r.Executor.sum, r.Executor.count)) rs

let check_matches_oracle name table enc client q =
  let encrypted = results_to_list (Scheme.query client enc q) in
  let plain = oracle_to_list (Executor.run table q) in
  Alcotest.(check (list (triple (list string) int int))) name plain encrypted

(* --- the worked example ---------------------------------------------------- *)

let test_paper_bucket_index () =
  (* Table 5: Gen1 = {1..5}, Dept1 = {1,2,3,4}, Dept2 = {5} (row ids are
     0-based here). *)
  let m_gender = example_client.Scheme.mappings.(0) in
  let m_dept = example_client.Scheme.mappings.(1) in
  Alcotest.(check int) "one gender bucket" 1 (Mapping.num_buckets m_gender);
  Alcotest.(check int) "two dept buckets" 2 (Mapping.num_buckets m_dept);
  Alcotest.(check int) "Sales in Dept1" 0 (Mapping.bucket m_dept (str "Sales"));
  Alcotest.(check int) "Finance in Dept1" 0 (Mapping.bucket m_dept (str "Finance"));
  Alcotest.(check int) "Facility in Dept2" 1 (Mapping.bucket m_dept (str "Facility"))

let test_paper_table7 () =
  (* Listing 2: SELECT SUM(Salary) GROUP BY Gender, Department → Table 7. *)
  let q = Query.make ~group_by:[ "Gender"; "Department" ] (Query.Sum "Salary") in
  Alcotest.(check (list (triple (list string) int int)))
    "Table 7"
    [ ([ "female"; "Finance" ], 1500, 1);
      ([ "female"; "Sales" ], 5000, 1);
      ([ "male"; "Facility" ], 2000, 1);
      ([ "male"; "Sales" ], 4000, 2) ]
    (results_to_list (Scheme.query example_client example_enc q))

let test_paper_listing1_with_filter () =
  (* Listing 1 adds WHERE Department = 'Sales' → Table 2. *)
  let q =
    Query.make
      ~where:[ ("Department", str "Sales") ]
      ~group_by:[ "Gender"; "Department" ]
      (Query.Sum "Salary")
  in
  Alcotest.(check (list (triple (list string) int int)))
    "Table 2"
    [ ([ "female"; "Sales" ], 5000, 1); ([ "male"; "Sales" ], 4000, 2) ]
    (results_to_list (Scheme.query example_client example_enc q))

let test_single_attribute_queries () =
  check_matches_oracle "by gender" example_table example_enc example_client
    (Query.make ~group_by:[ "Gender" ] (Query.Sum "Salary"));
  check_matches_oracle "by department" example_table example_enc example_client
    (Query.make ~group_by:[ "Department" ] (Query.Sum "Salary"))

let test_count_query () =
  check_matches_oracle "count by dept" example_table example_enc example_client
    (Query.make ~group_by:[ "Department" ] Query.Count);
  check_matches_oracle "count by both" example_table example_enc example_client
    (Query.make ~group_by:[ "Gender"; "Department" ] Query.Count)

let test_avg_query () =
  let q = Query.make ~group_by:[ "Gender" ] (Query.Avg "Salary") in
  let rs = Scheme.query example_client example_enc q in
  let avgs = List.map (fun r -> Scheme.aggregate_value q r) rs in
  Alcotest.(check (list (float 0.001))) "avg salary" [ 3250.; 2000. ] avgs

let test_filter_by_name () =
  check_matches_oracle "name filter" example_table example_enc example_client
    (Query.make ~where:[ ("Name", str "Paul") ] ~group_by:[ "Gender" ] (Query.Sum "Salary"));
  check_matches_oracle "empty filter result" example_table example_enc example_client
    (Query.make ~where:[ ("Name", str "Nobody") ] ~group_by:[ "Gender" ] (Query.Sum "Salary"))

let test_conjunctive_filter () =
  check_matches_oracle "two filters" example_table example_enc example_client
    (Query.make
       ~where:[ ("Department", str "Sales"); ("Name", str "Bob") ]
       ~group_by:[ "Gender" ] (Query.Sum "Salary"))

let test_threshold_enforced () =
  (* t = 2 but querying… there are only 2 group columns; build a config
     with t = 1 instead. *)
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~value_columns:[ "Salary" ]
      ~group_columns:[ "Gender"; "Department" ] ()
  in
  let client =
    Scheme.setup ~mapping_strategy:paper_mappings config
      ~domains:[ ("Gender", gender_domain); ("Department", department_domain) ]
      (Drbg.create "threshold-test")
  in
  Alcotest.check_raises "too many attrs"
    (Invalid_argument "Scheme.token: 2 grouping attributes exceed threshold t=1") (fun () ->
      ignore (Scheme.token client (Query.make ~group_by:[ "Gender"; "Department" ] Query.Count)))

let test_non_filter_column_rejected () =
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~value_columns:[ "Salary" ]
      ~group_columns:[ "Gender" ] ()
  in
  let client =
    Scheme.setup ~mapping_strategy:paper_mappings config
      ~domains:[ ("Gender", gender_domain) ] (Drbg.create "filter-test")
  in
  Alcotest.check_raises "not a filter column"
    (Invalid_argument "Scheme.token: \"Department\" is not a filter column") (fun () ->
      ignore
        (Scheme.token client
           (Query.make ~where:[ ("Department", str "Sales") ] ~group_by:[ "Gender" ] Query.Count)))

(* --- randomized oracle comparison ------------------------------------------ *)

let random_test_table seed rows =
  let d = Drbg.create seed in
  let schema =
    [ { Table.name = "v"; ty = Value.TInt };
      { Table.name = "g1"; ty = Value.TInt };
      { Table.name = "g2"; ty = Value.TStr } ]
  in
  let g2vals = [| "x"; "y"; "z"; "w"; "q" |] in
  Table.of_rows schema
    (List.init rows (fun _ ->
         [| vi (Drbg.int_below d 1000);
            vi (Drbg.int_below d 7);
            str g2vals.(Drbg.int_below d 5) |]))

let test_random_tables_match_oracle () =
  List.iter
    (fun (seed, rows, bucket_size) ->
      let table = random_test_table seed rows in
      let config =
        Config.make ~bucket_size ~max_group_attrs:2 ~filter_columns:[ "g2" ]
          ~value_columns:[ "v" ] ~group_columns:[ "g1"; "g2" ] ()
      in
      let client =
        Scheme.setup config
          ~domains:
            [ ("g1", List.init 7 (fun i -> vi i));
              ("g2", [ str "x"; str "y"; str "z"; str "w"; str "q" ]) ]
          (Drbg.create ("client-" ^ seed))
      in
      let enc = Scheme.encrypt_table client table in
      List.iter
        (fun q -> check_matches_oracle (seed ^ ": " ^ Query.to_sql q) table enc client q)
        [ Query.make ~group_by:[ "g1" ] (Query.Sum "v");
          Query.make ~group_by:[ "g2" ] (Query.Sum "v");
          Query.make ~group_by:[ "g1"; "g2" ] (Query.Sum "v");
          Query.make ~group_by:[ "g1"; "g2" ] Query.Count;
          Query.make ~where:[ ("g2", str "x") ] ~group_by:[ "g1" ] (Query.Sum "v") ])
    [ ("rnd-1", 30, 2); ("rnd-2", 25, 3); ("rnd-3", 20, 4) ]

let test_multiple_value_columns () =
  let schema =
    [ { Table.name = "price"; ty = Value.TInt };
      { Table.name = "qty"; ty = Value.TInt };
      { Table.name = "region"; ty = Value.TStr } ]
  in
  let d = Drbg.create "multi-value" in
  let regions = [| "eu"; "us"; "apac" |] in
  let table =
    Table.of_rows schema
      (List.init 20 (fun _ ->
           [| vi (Drbg.int_below d 500); vi (Drbg.int_below d 50);
              str regions.(Drbg.int_below d 3) |]))
  in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~value_columns:[ "price"; "qty" ]
      ~group_columns:[ "region" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:[ ("region", [ str "eu"; str "us"; str "apac" ]) ]
      (Drbg.create "client-mv")
  in
  let enc = Scheme.encrypt_table client table in
  check_matches_oracle "sum price" table enc client
    (Query.make ~group_by:[ "region" ] (Query.Sum "price"));
  check_matches_oracle "sum qty" table enc client
    (Query.make ~group_by:[ "region" ] (Query.Sum "qty"))

(* --- dummy rows ------------------------------------------------------------- *)

let test_dummy_rows_preserve_results () =
  (* Pad Department buckets; results must not change, and counting must
     switch to the paired (dummy-safe) mode. *)
  let hist_g = Bucketing.histogram example_table "Gender" in
  let hist_d = Bucketing.histogram example_table "Department" in
  let dummies =
    Bucketing.dummy_rows
      [| example_client.Scheme.mappings.(0); example_client.Scheme.mappings.(1) |]
      [| hist_g; hist_d |]
  in
  Alcotest.(check bool) "some dummies" true (List.length dummies > 0);
  let enc = Scheme.encrypt_table ~dummy_groups:dummies example_client example_table in
  Alcotest.(check bool) "paired mode" true (enc.Scheme.count_mode = Scheme.Count_paired);
  List.iter
    (fun q -> check_matches_oracle ("dummies: " ^ Query.to_sql q) example_table enc example_client q)
    [ Query.make ~group_by:[ "Gender"; "Department" ] (Query.Sum "Salary");
      Query.make ~group_by:[ "Department" ] Query.Count;
      Query.make ~group_by:[ "Gender" ] (Query.Sum "Salary") ]

let test_dummy_rows_flatten_leakage () =
  (* After padding, all Department buckets must expose the same access
     pattern size. *)
  let hist_d = Bucketing.histogram example_table "Department" in
  let m_d = example_client.Scheme.mappings.(1) in
  let plan = Bucketing.dummy_plan_for_column m_d hist_d in
  let freqs = Bucketing.bucket_frequencies m_d (hist_d @ plan) in
  Alcotest.(check bool) "flat" true (Array.for_all (fun f -> f = freqs.(0)) freqs)

(* --- attribute value splits -------------------------------------------------- *)

let test_value_split_roundtrip () =
  let table' =
    Bucketing.split_column example_table ~column:"Department" ~value:(str "Sales") ~parts:2
  in
  let dept_domain' =
    Bucketing.split_domain department_domain ~value:(str "Sales") ~parts:2
  in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~value_columns:[ "Salary" ]
      ~group_columns:[ "Gender"; "Department" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:[ ("Gender", gender_domain); ("Department", dept_domain') ]
      (Drbg.create "split-test")
  in
  let enc = Scheme.encrypt_table client table' in
  let q = Query.make ~group_by:[ "Gender"; "Department" ] (Query.Sum "Salary") in
  let raw = Scheme.query client enc q in
  let merged =
    Bucketing.merge_split_results raw ~position:1 ~value:(str "Sales") ~parts:2
  in
  (* After merging we must recover the original Table 7. *)
  Alcotest.(check (list (triple (list string) int int)))
    "merged = Table 7"
    [ ([ "female"; "Finance" ], 1500, 1);
      ([ "female"; "Sales" ], 5000, 1);
      ([ "male"; "Facility" ], 2000, 1);
      ([ "male"; "Sales" ], 4000, 2) ]
    (results_to_list merged)

(* --- range filtering (dyadic SSE cover) ----------------------------------------- *)

let range_schema : Table.schema =
  [ { Table.name = "v"; ty = Value.TInt };
    { Table.name = "g"; ty = Value.TStr };
    { Table.name = "ts"; ty = Value.TInt } ]

let range_table =
  let d = Drbg.create "range-data" in
  Table.of_rows range_schema
    (List.init 30 (fun _ ->
         [| vi (Drbg.int_below d 100);
            str [| "a"; "b"; "c" |].(Drbg.int_below d 3);
            vi (Drbg.int_below d 256) |]))

let range_client =
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~range_filter_columns:[ "ts" ] ~range_bits:8
      ~value_columns:[ "v" ] ~group_columns:[ "g" ] ()
  in
  Scheme.setup config
    ~domains:[ ("g", [ str "a"; str "b"; str "c" ]) ]
    (Drbg.create "range-client")

let range_enc = Scheme.encrypt_table range_client range_table

let test_range_filter_matches_oracle () =
  List.iter
    (fun (lo, hi) ->
      let q =
        Query.make ~ranges:[ ("ts", lo, hi) ] ~group_by:[ "g" ] (Query.Sum "v")
      in
      check_matches_oracle
        (Printf.sprintf "BETWEEN %d AND %d" lo hi)
        range_table range_enc range_client q)
    [ (0, 255); (100, 200); (17, 17); (200, 255); (250, 255) ]

let test_range_filter_empty_result () =
  (* A range below every stored timestamp: the cover exists but matches
     nothing (stored values are < 256 and the range is valid-but-vacant
     only if no row hits it; force with an impossible-but-valid range
     after checking the data). *)
  let q = Query.make ~ranges:[ ("ts", 0, 255) ] ~group_by:[ "g" ] Query.Count in
  let all = Scheme.query range_client range_enc q in
  let total = List.fold_left (fun acc r -> acc + r.Scheme.count) 0 all in
  Alcotest.(check int) "full range covers all rows" 30 total

let test_range_with_sql () =
  (* Parse a SQL BETWEEN query and run it over the encrypted table. *)
  let q = Sagma_db.Sql.parse_query "SELECT SUM(v), g FROM t WHERE ts BETWEEN 50 AND 150 GROUP BY g" in
  check_matches_oracle "sql range" range_table range_enc range_client q

let test_range_column_validation () =
  Alcotest.check_raises "not a range column"
    (Invalid_argument "Scheme.token: \"v\" is not a range filter column") (fun () ->
      ignore
        (Scheme.token range_client
           (Query.make ~ranges:[ ("v", 0, 10) ] ~group_by:[ "g" ] Query.Count)))

let test_range_append () =
  let enc =
    Scheme.append_row ~range_values:[ ("ts", 99) ] range_client range_enc ~values:[| 1000 |]
      ~groups:[| str "a" |] ~filters:[]
  in
  let q = Query.make ~ranges:[ ("ts", 99, 99) ] ~group_by:[ "g" ] (Query.Sum "v") in
  let rs = Scheme.query range_client enc q in
  (* The appended row must be found by a point-range query on ts = 99. *)
  let appended = List.find_opt (fun r -> r.Scheme.group = [ str "a" ] && r.Scheme.sum >= 1000) rs in
  Alcotest.(check bool) "appended row rangeable" true (appended <> None)

(* --- joint bucket index (§3.4 Boolean-SSE alternative) ------------------------- *)

let test_joint_index_matches_per_attribute () =
  let table = random_test_table "joint" 30 in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~filter_columns:[ "g2" ]
      ~value_columns:[ "v" ] ~group_columns:[ "g1"; "g2" ] ()
  in
  let domains =
    [ ("g1", List.init 7 (fun i -> vi i)); ("g2", [ str "x"; str "y"; str "z"; str "w"; str "q" ]) ]
  in
  let client = Scheme.setup config ~domains (Drbg.create "joint-client") in
  let per = Scheme.encrypt_table ~index_mode:Scheme.Per_attribute client table in
  let joint = Scheme.encrypt_table ~index_mode:Scheme.Joint client table in
  List.iter
    (fun q ->
      Alcotest.(check (list (triple (list string) int int)))
        ("joint = per-attribute: " ^ Query.to_sql q)
        (results_to_list (Scheme.query client per q))
        (results_to_list (Scheme.query client joint q)))
    [ Query.make ~group_by:[ "g1" ] (Query.Sum "v");
      Query.make ~group_by:[ "g1"; "g2" ] (Query.Sum "v");
      Query.make ~group_by:[ "g2"; "g1" ] Query.Count;  (* query order ≠ storage order *)
      Query.make ~where:[ ("g2", str "x") ] ~group_by:[ "g1" ] (Query.Sum "v") ]

let test_joint_index_hides_individual_buckets () =
  (* In joint mode, a 2-attribute query's observations are per joint
     bucket; the per-attribute keywords are never queried, so their
     access patterns are not part of the trace. *)
  let table = random_test_table "joint-leak" 24 in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~value_columns:[ "v" ]
      ~group_columns:[ "g1"; "g2" ] ()
  in
  let domains =
    [ ("g1", List.init 7 (fun i -> vi i)); ("g2", [ str "x"; str "y"; str "z"; str "w"; str "q" ]) ]
  in
  let client = Scheme.setup config ~domains (Drbg.create "joint-leak-client") in
  let joint = Scheme.encrypt_table ~index_mode:Scheme.Joint client table in
  let q = Query.make ~group_by:[ "g1"; "g2" ] Query.Count in
  let tok = Scheme.token ~index_mode:Scheme.Joint client q in
  let leak = Sagma.Leakage.profile joint [ tok ] in
  let ql = List.hd leak.Sagma.Leakage.queries in
  (* Observations = s_1 × s_2 joint buckets (4 × 3 = 12). *)
  Alcotest.(check int) "joint observations" 12 (List.length ql.Sagma.Leakage.observations);
  (* Every queried keyword is a joint one: its access pattern sizes
     partition the rows, and no single-attribute pattern is derivable
     without summing — structurally the per-attribute keywords are absent
     from the index altogether. *)
  let per_attr_tok = Scheme.token ~index_mode:Scheme.Per_attribute client q in
  (match per_attr_tok.Scheme.source with
   | Scheme.Per_attribute_tokens per ->
     Array.iter
       (Array.iter (fun t ->
            Alcotest.(check (list int)) "per-attribute keywords unindexed" []
              (Sagma_sse.Sse.search joint.Scheme.index t)))
       per
   | _ -> Alcotest.fail "expected per-attribute tokens")

let test_joint_index_append () =
  let table = random_test_table "joint-append" 10 in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~value_columns:[ "v" ]
      ~group_columns:[ "g1"; "g2" ] ()
  in
  let domains =
    [ ("g1", List.init 7 (fun i -> vi i)); ("g2", [ str "x"; str "y"; str "z"; str "w"; str "q" ]) ]
  in
  let client = Scheme.setup config ~domains (Drbg.create "joint-append-client") in
  let joint = Scheme.encrypt_table ~index_mode:Scheme.Joint client table in
  let joint = Scheme.append_row client joint ~values:[| 500 |] ~groups:[| vi 0; str "x" |] ~filters:[] in
  let q = Query.make ~group_by:[ "g1"; "g2" ] (Query.Sum "v") in
  let with_append = results_to_list (Scheme.query client joint q) in
  (* Oracle: plaintext table plus the appended row. *)
  let table' =
    Sagma_db.Table.of_rows (Sagma_db.Table.schema table)
      (Sagma_db.Table.rows table @ [ [| vi 500; vi 0; str "x" |] ])
  in
  Alcotest.(check (list (triple (list string) int int))) "append in joint mode"
    (oracle_to_list (Executor.run table' q))
    with_append

(* --- OXT conjunctive index (§3.2/§3.4, Cash et al. [6]) ------------------------- *)

let oxt_client_and_table () =
  let table = random_test_table "oxt-mode" 25 in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~filter_columns:[ "g2" ]
      ~value_columns:[ "v" ] ~group_columns:[ "g1"; "g2" ] ()
  in
  let domains =
    [ ("g1", List.init 7 (fun i -> vi i)); ("g2", [ str "x"; str "y"; str "z"; str "w"; str "q" ]) ]
  in
  let client = Scheme.setup config ~domains (Drbg.create "oxt-mode-client") in
  (client, table)

let test_oxt_mode_matches_oracle () =
  let client, table = oxt_client_and_table () in
  let enc = Scheme.encrypt_table ~index_mode:Scheme.Oxt_conjunctive client table in
  Alcotest.(check bool) "has oxt index" true (enc.Scheme.oxt_index <> None);
  List.iter
    (fun q -> check_matches_oracle ("oxt: " ^ Query.to_sql q) table enc client q)
    [ Query.make ~group_by:[ "g1" ] (Query.Sum "v");
      Query.make ~group_by:[ "g1"; "g2" ] (Query.Sum "v");
      Query.make ~group_by:[ "g2"; "g1" ] Query.Count;
      Query.make ~where:[ ("g2", str "x") ] ~group_by:[ "g1" ] (Query.Sum "v") ]

let test_oxt_mode_storage_is_linear () =
  (* Per row: l TSet entries + l XSet tags, vs Σ C(l,i) Π_bas postings in
     Joint mode. *)
  let client, table = oxt_client_and_table () in
  let enc = Scheme.encrypt_table ~index_mode:Scheme.Oxt_conjunctive client table in
  let oxt = Option.get enc.Scheme.oxt_index in
  let rows = Array.length enc.Scheme.rows in
  Alcotest.(check int) "tset = l * rows" (2 * rows) (Sagma_sse.Oxt.tset_size oxt);
  (* The pi-bas index holds only the filter keywords. *)
  Alcotest.(check int) "pi-bas holds filters only" rows (Sagma_sse.Sse.size enc.Scheme.index)

let test_oxt_mode_append () =
  let client, table = oxt_client_and_table () in
  let enc = Scheme.encrypt_table ~index_mode:Scheme.Oxt_conjunctive client table in
  let enc' =
    Scheme.append_row client enc ~values:[| 777 |] ~groups:[| vi 3; str "y" |]
      ~filters:[ ("g2", str "y") ]
  in
  let q = Query.make ~group_by:[ "g1"; "g2" ] (Query.Sum "v") in
  let table' =
    Sagma_db.Table.of_rows (Sagma_db.Table.schema table)
      (Sagma_db.Table.rows table @ [ [| vi 777; vi 3; str "y" |] ])
  in
  Alcotest.(check (list (triple (list string) int int))) "append in oxt mode"
    (oracle_to_list (Executor.run table' q))
    (results_to_list (Scheme.query client enc' q));
  (* [Oxt.add] shares structure with its input: the pre-append table
     still gives its old answer. *)
  Alcotest.(check (list (triple (list string) int int))) "pre-append table unchanged"
    (oracle_to_list (Executor.run table q))
    (results_to_list (Scheme.query client enc q))

let test_oxt_mode_remote_append_rejected () =
  let client, _ = oxt_client_and_table () in
  Alcotest.(check bool) "payload rejected" true
    (try
       ignore
         (Scheme.append_payload ~index_mode:Scheme.Oxt_conjunctive client ~values:[| 1 |]
            ~groups:[| vi 0; str "x" |] ~filters:[]);
       false
     with Invalid_argument _ -> true)

let test_oxt_mode_token_needs_rows () =
  let client, table = oxt_client_and_table () in
  ignore (Scheme.encrypt_table ~index_mode:Scheme.Oxt_conjunctive client table);
  Alcotest.check_raises "oxt_rows required"
    (Invalid_argument "Scheme.token: OXT mode needs ~oxt_rows (the table's row count)")
    (fun () ->
      ignore
        (Scheme.token ~index_mode:Scheme.Oxt_conjunctive client
           (Query.make ~group_by:[ "g1" ] Query.Count)))

(* --- parallel aggregation ------------------------------------------------------ *)

let test_parallel_aggregation_equivalent () =
  (* Multi-domain aggregation must produce aggregates that decrypt to the
     same results as the sequential path (ciphertexts differ — addition
     order changes blinding — but plaintexts must not). *)
  let table = random_test_table "parallel" 40 in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~value_columns:[ "v" ]
      ~group_columns:[ "g1"; "g2" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:
        [ ("g1", List.init 7 (fun i -> vi i));
          ("g2", [ str "x"; str "y"; str "z"; str "w"; str "q" ]) ]
      (Drbg.create "parallel-client")
  in
  let enc = Scheme.encrypt_table client table in
  let q = Query.make ~group_by:[ "g1"; "g2" ] (Query.Sum "v") in
  let tok = Scheme.token client q in
  let seq = Scheme.aggregate enc tok in
  let pool = Sagma_pool.Pool.create ~workers:3 () in
  let par =
    Fun.protect
      ~finally:(fun () -> Sagma_pool.Pool.shutdown pool)
      (fun () -> Scheme.aggregate ~pool enc tok)
  in
  let dec agg =
    List.map
      (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
      (Scheme.decrypt client tok agg ~total_rows:40)
  in
  Alcotest.(check (list (triple (list string) int int))) "parallel = sequential" (dec seq) (dec par)

(* --- database updates (append_row) ------------------------------------------- *)

let test_append_row () =
  (* Start from the paper example, append Eve (4000, female, Finance) and
     re-run Listing 2: the new row must land in the right group, through
     the updated SSE index. *)
  let enc = Scheme.encrypt_table example_client example_table in
  let enc =
    Scheme.append_row example_client enc ~values:[| 4000 |]
      ~groups:[| str "female"; str "Finance" |]
      ~filters:[ ("Department", str "Finance"); ("Name", str "Eve") ]
  in
  let q = Query.make ~group_by:[ "Gender"; "Department" ] (Query.Sum "Salary") in
  Alcotest.(check (list (triple (list string) int int)))
    "after append"
    [ ([ "female"; "Finance" ], 5500, 2);
      ([ "female"; "Sales" ], 5000, 1);
      ([ "male"; "Facility" ], 2000, 1);
      ([ "male"; "Sales" ], 4000, 2) ]
    (results_to_list (Scheme.query example_client enc q));
  (* The appended row is filterable. *)
  let qf =
    Query.make ~where:[ ("Name", str "Eve") ] ~group_by:[ "Department" ] (Query.Sum "Salary")
  in
  Alcotest.(check (list (triple (list string) int int)))
    "filter finds appended row"
    [ ([ "Finance" ], 4000, 1) ]
    (results_to_list (Scheme.query example_client enc qf))

(* The index carries each keyword's next posting counter. A cold local
   append finds a fat keyword's counter by galloping over its labels, so
   it scans no posting, and a warm one shares the persistent index
   instead of copying it: at 10k postings growing the index allocates
   about what it does at 10. The allocation is measured on
   [Scheme.append], the index half of [append_row], because encrypting
   the row allocates some 200k words whatever the index holds. *)
let test_append_row_counter_cached () =
  let module Sse = Sagma_sse.Sse in
  let module M = Sagma_obs.Metrics in
  let tok =
    Sse.token example_client.Scheme.sse_key (Scheme.filter_keyword ~column:"Name" (str "Zed"))
  in
  let fat postings =
    { example_enc with
      Scheme.index =
        Sse.of_entries
          (Sse.entries example_enc.Scheme.index
          @ List.init postings (fun c -> Sse.entry tok c (c mod 5))) }
  in
  let groups = [| str "male"; str "Sales" |] and filters = [ ("Name", str "Zed") ] in
  let row, tokens = Scheme.append_payload example_client ~values:[| 1 |] ~groups ~filters in
  let words enc =
    let w0 = Gc.minor_words () in
    let enc = Scheme.append enc row tokens in
    (enc, Gc.minor_words () -. w0)
  in
  let scanned () =
    Option.value ~default:0 (List.assoc_opt "sse.postings_scanned" (M.snapshot ()).M.counters)
  in
  ignore (words example_enc);
  M.reset ();
  M.set_enabled true;
  let (cold_small, warm_small), (enc, cold, warm, scans) =
    Fun.protect
      ~finally:(fun () ->
        M.set_enabled false;
        M.reset ())
      (fun () ->
        let enc, cold_small = words (fat 10) in
        let _, warm_small = words enc in
        let enc, cold = words (fat 10_000) in
        let enc, warm = words enc in
        let enc =
          List.fold_left
            (fun enc _ -> Scheme.append_row example_client enc ~values:[| 1 |] ~groups ~filters)
            enc (List.init 4 Fun.id)
        in
        ((cold_small, warm_small), (enc, cold, warm, scanned ())))
  in
  Alcotest.(check int) "appends scan no postings" 0 scans;
  Alcotest.(check bool)
    (Printf.sprintf "cold append at 10k postings: %.0f words, at 10: %.0f" cold cold_small)
    true
    (cold <= 4. *. cold_small);
  Alcotest.(check bool)
    (Printf.sprintf "warm append at 10k postings: %.0f words, at 10: %.0f" warm warm_small)
    true
    (warm <= 2. *. warm_small);
  Alcotest.(check (list int)) "every append posted at the next counter"
    (List.init 6 (fun k -> 5 + k))
    (List.filteri (fun i _ -> i >= 10_000) (Sse.search enc.Scheme.index tok))

(* Appends never mutate their input: two appends to the same table give
   two tables that each hold exactly their own new row, and the shared
   parent still answers as before. The parent's counters are warm, so a
   cache shared between index values would misplace the second
   branch's postings. *)
let test_append_non_destructive () =
  let base =
    Scheme.append_row example_client example_enc ~values:[| 100 |]
      ~groups:[| str "male"; str "Sales" |] ~filters:[ ("Name", str "Zed") ]
  in
  let a =
    Scheme.append_row example_client base ~values:[| 200 |]
      ~groups:[| str "female"; str "Finance" |]
      ~filters:[ ("Name", str "Zed"); ("Department", str "Finance") ]
  in
  let b =
    Scheme.append_row example_client base ~values:[| 300 |]
      ~groups:[| str "male"; str "Facility" |]
      ~filters:[ ("Name", str "Zed"); ("Department", str "Facility") ]
  in
  let q =
    Query.make ~where:[ ("Name", str "Zed") ] ~group_by:[ "Gender"; "Department" ]
      (Query.Sum "Salary")
  in
  let check name expected enc =
    Alcotest.(check (list (triple (list string) int int)))
      name expected
      (results_to_list (Scheme.query example_client enc q))
  in
  check "first branch" [ ([ "female"; "Finance" ], 200, 1); ([ "male"; "Sales" ], 100, 1) ] a;
  check "second branch" [ ([ "male"; "Facility" ], 300, 1); ([ "male"; "Sales" ], 100, 1) ] b;
  check "parent unchanged" [ ([ "male"; "Sales" ], 100, 1) ] base;
  check_matches_oracle "second branch, unfiltered"
    (Table.of_rows example_schema
       (Table.rows example_table
       @ [ [| vi 6; vi 100; str "male"; str "Zed"; str "Sales" |];
           [| vi 7; vi 300; str "male"; str "Zed"; str "Facility" |] ]))
    b example_client
    (Query.make ~group_by:[ "Gender"; "Department" ] (Query.Sum "Salary"))

let test_append_row_validation () =
  let enc = Scheme.encrypt_table example_client example_table in
  Alcotest.check_raises "group arity" (Invalid_argument "Scheme.append_row: group arity mismatch")
    (fun () ->
      ignore (Scheme.append_row example_client enc ~values:[| 1 |] ~groups:[| str "male" |] ~filters:[]));
  Alcotest.check_raises "bad filter column"
    (Invalid_argument "Scheme.append_row: \"Salary\" is not a filter column") (fun () ->
      ignore
        (Scheme.append_row example_client enc ~values:[| 1 |]
           ~groups:[| str "male"; str "Sales" |]
           ~filters:[ ("Salary", Value.Int 1) ]))

(* --- structural properties of the encrypted table ---------------------------- *)

let test_enc_table_shape () =
  let pp = example_enc.Scheme.pp in
  Alcotest.(check int) "rows" 5 (Array.length example_enc.Scheme.rows);
  let expected_monomials =
    Monomials.count_formula ~num_columns:2 ~bucket_size:2 ~threshold:2
  in
  Alcotest.(check int) "monomials per row (m(2,2), B=2 → 3)" expected_monomials
    (Array.length example_enc.Scheme.rows.(0).Scheme.monomial_cts);
  Alcotest.(check int) "value columns" 1
    (Array.length example_enc.Scheme.rows.(0).Scheme.values);
  Alcotest.(check int) "channels" (Sagma_bgn.Crt_channels.channels pp.Scheme.channels)
    (Array.length example_enc.Scheme.rows.(0).Scheme.values.(0))

let test_fresh_randomness_across_rows () =
  (* Rows 1 and 4 both hold Salary values ≠ but identical Gender (male):
     their gender-monomial ciphertexts must differ (semantic security). *)
  let r0 = example_enc.Scheme.rows.(0) and r3 = example_enc.Scheme.rows.(3) in
  Alcotest.(check bool) "monomial cts differ" false
    (Sagma_pairing.Curve.equal r0.Scheme.monomial_cts.(0) r3.Scheme.monomial_cts.(0))

(* --- randomized end-to-end fuzzing --------------------------------------------

   Random (B, t, domain sizes, table, query, index mode) through the full
   pipeline, checked against the plaintext oracle. Sizes stay small so the
   whole fuzz batch runs in seconds. *)

let fuzz_one (seed : int) : bool =
  let d = Drbg.of_int_seed seed in
  let bucket_size = Drbg.int_range d 1 3 in
  let d1_size = Drbg.int_range d 1 5 in
  let d2_size = Drbg.int_range d 2 4 in
  let rows = Drbg.int_range d 0 12 in
  let schema =
    [ { Table.name = "v"; ty = Value.TInt };
      { Table.name = "g1"; ty = Value.TInt };
      { Table.name = "g2"; ty = Value.TStr } ]
  in
  let g2_values = Array.init d2_size (fun i -> Printf.sprintf "s%d" i) in
  let table =
    Table.of_rows schema
      (List.init rows (fun _ ->
           [| vi (Drbg.int_below d 500);
              vi (Drbg.int_below d d1_size);
              str g2_values.(Drbg.int_below d d2_size) |]))
  in
  let index_mode =
    match Drbg.int_below d 3 with
    | 0 -> Scheme.Per_attribute
    | 1 -> Scheme.Joint
    | _ -> Scheme.Oxt_conjunctive
  in
  let config =
    Config.make ~bucket_size ~max_group_attrs:2 ~value_columns:[ "v" ]
      ~group_columns:[ "g1"; "g2" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:
        [ ("g1", List.init d1_size (fun i -> vi i));
          ("g2", Array.to_list (Array.map str g2_values)) ]
      (Drbg.of_int_seed (seed * 7 + 1))
  in
  let enc = Scheme.encrypt_table ~index_mode client table in
  let q =
    let group_by =
      match Drbg.int_below d 3 with
      | 0 -> [ "g1" ]
      | 1 -> [ "g2" ]
      | _ -> [ "g1"; "g2" ]
    in
    let agg = if Drbg.bool d then Query.Sum "v" else Query.Count in
    Query.make ~group_by agg
  in
  let got = results_to_list (Scheme.query client enc q) in
  let want = oracle_to_list (Executor.run table q) in
  got = want

let test_fuzz_pipeline () =
  for seed = 1 to 12 do
    Alcotest.(check bool) (Printf.sprintf "fuzz seed %d" seed) true (fuzz_one seed)
  done

let test_setup_requires_domains () =
  Alcotest.check_raises "missing domain"
    (Invalid_argument "Scheme.setup: no domain for group column \"Department\"") (fun () ->
      ignore
        (Scheme.setup example_config ~domains:[ ("Gender", gender_domain) ]
           (Drbg.create "missing")))

let () =
  Alcotest.run "sagma"
    [ ( "paper-example",
        [ Alcotest.test_case "bucket index (Table 5)" `Quick test_paper_bucket_index;
          Alcotest.test_case "Listing 2 → Table 7" `Quick test_paper_table7;
          Alcotest.test_case "Listing 1 → Table 2 (filter)" `Quick test_paper_listing1_with_filter;
          Alcotest.test_case "single-attribute queries" `Quick test_single_attribute_queries;
          Alcotest.test_case "count" `Quick test_count_query;
          Alcotest.test_case "avg" `Quick test_avg_query ] );
      ( "filters",
        [ Alcotest.test_case "filter by name" `Quick test_filter_by_name;
          Alcotest.test_case "conjunctive" `Quick test_conjunctive_filter ] );
      ( "validation",
        [ Alcotest.test_case "threshold enforced" `Quick test_threshold_enforced;
          Alcotest.test_case "filter column checked" `Quick test_non_filter_column_rejected;
          Alcotest.test_case "setup requires domains" `Quick test_setup_requires_domains ] );
      ( "oracle",
        [ Alcotest.test_case "random tables" `Slow test_random_tables_match_oracle;
          Alcotest.test_case "multiple value columns" `Quick test_multiple_value_columns;
          Alcotest.test_case "randomized pipeline fuzz" `Slow test_fuzz_pipeline ] );
      ( "dummy-rows",
        [ Alcotest.test_case "results preserved" `Quick test_dummy_rows_preserve_results;
          Alcotest.test_case "leakage flattened" `Quick test_dummy_rows_flatten_leakage ] );
      ("splits", [ Alcotest.test_case "split + merge roundtrip" `Quick test_value_split_roundtrip ]);
      ( "updates",
        [ Alcotest.test_case "append row" `Quick test_append_row;
          Alcotest.test_case "append validation" `Quick test_append_row_validation;
          Alcotest.test_case "append counters cached" `Quick test_append_row_counter_cached;
          Alcotest.test_case "append non-destructive" `Quick test_append_non_destructive ] );
      ( "range-filters",
        [ Alcotest.test_case "matches oracle" `Slow test_range_filter_matches_oracle;
          Alcotest.test_case "full range" `Quick test_range_filter_empty_result;
          Alcotest.test_case "via sql" `Quick test_range_with_sql;
          Alcotest.test_case "validation" `Quick test_range_column_validation;
          Alcotest.test_case "append with range values" `Quick test_range_append ] );
      ( "joint-index",
        [ Alcotest.test_case "matches per-attribute" `Slow test_joint_index_matches_per_attribute;
          Alcotest.test_case "hides individual buckets" `Quick test_joint_index_hides_individual_buckets;
          Alcotest.test_case "append" `Quick test_joint_index_append ] );
      ( "oxt-index",
        [ Alcotest.test_case "matches oracle" `Slow test_oxt_mode_matches_oracle;
          Alcotest.test_case "linear storage" `Quick test_oxt_mode_storage_is_linear;
          Alcotest.test_case "append" `Quick test_oxt_mode_append;
          Alcotest.test_case "remote append rejected" `Quick test_oxt_mode_remote_append_rejected;
          Alcotest.test_case "token needs rows" `Quick test_oxt_mode_token_needs_rows ] );
      ( "parallel",
        [ Alcotest.test_case "multi-domain equivalence" `Slow test_parallel_aggregation_equivalent ] );
      ( "structure",
        [ Alcotest.test_case "encrypted table shape" `Quick test_enc_table_shape;
          Alcotest.test_case "fresh randomness" `Quick test_fresh_randomness_across_rows ] );
    ]
