(* Payroll analytics under a skewed distribution: demonstrates the §5
   protection mechanisms working together.

   A payroll table with a heavily skewed department distribution would
   leak that skew through bucket access patterns. This example measures
   the exposure coefficient of the naive (PRF) partitioning, then applies
   (a) an optimal mapping, (b) dummy rows equalizing bucket frequencies
   and (c) an attribute value split of the dominant department — and
   verifies the query results are unchanged.

     dune exec examples/payroll.exe                                       *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

let schema : Table.schema =
  [ { Table.name = "salary"; ty = Value.TInt };
    { Table.name = "department"; ty = Value.TStr };
    { Table.name = "seniority"; ty = Value.TStr } ]

let departments = [| "eng"; "eng"; "eng"; "eng"; "eng"; "eng"; "sales"; "sales"; "hr"; "legal" |]
let seniorities = [| "junior"; "senior"; "staff" |]

let table =
  let d = Drbg.create "payroll-data" in
  Table.of_rows schema
    (List.init 60 (fun _ ->
         [| vi (40_000 + Drbg.int_below d 100_000);
            str departments.(Drbg.int_below d (Array.length departments));
            str seniorities.(Drbg.int_below d 3) |]))

let dept_domain = [ str "eng"; str "sales"; str "hr"; str "legal" ]
let seniority_domain = [ str "junior"; str "senior"; str "staff" ]

let show q rs =
  Printf.printf "  %s\n" (Query.to_sql q);
  List.iter
    (fun r ->
      Printf.printf "    %-24s sum=%-8d count=%d\n"
        (String.concat ", " (List.map Value.to_string r.Scheme.group))
        r.Scheme.sum r.Scheme.count)
    rs;
  print_newline ()

let () =
  print_endline "== Payroll: skew-aware bucketing, dummy rows, value splits ==\n";
  let hist = Bucketing.histogram table "department" in
  Printf.printf "department histogram: %s\n\n"
    (String.concat ", " (List.map (fun (v, c) -> Printf.sprintf "%s=%d" (Value.to_string v) c) hist));

  (* Exposure under a random PRF partition vs the optimal one. *)
  let prf_map = Mapping.make Mapping.Prf_random "demo-key" dept_domain ~bucket_size:2 in
  let opt_map = Bucketing.optimal_mapping hist ~bucket_size:2 in
  Printf.printf "exposure coefficient: prf=%.3f optimal=%.3f\n"
    (Bucketing.exposure prf_map hist) (Bucketing.exposure opt_map hist);

  (* Dummy rows flatten what remains. *)
  let plan = Bucketing.dummy_plan_for_column opt_map hist in
  Printf.printf "dummy rows needed to flatten buckets: %d\n\n"
    (List.fold_left (fun acc (_, k) -> acc + k) 0 plan);

  (* Set up SAGMA with the optimal department partition. *)
  let strategy = function
    | "department" -> Mapping.Optimal hist
    | _ -> Mapping.Prf_random
  in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~filter_columns:[ "seniority" ]
      ~value_columns:[ "salary" ] ~group_columns:[ "department"; "seniority" ] ()
  in
  let client =
    Scheme.setup ~mapping_strategy:strategy config
      ~domains:[ ("department", dept_domain); ("seniority", seniority_domain) ]
      (Drbg.create "payroll-client")
  in
  (* Encrypt with dummy rows derived from the per-column plans. *)
  let maps = client.Scheme.mappings in
  let dummies =
    Bucketing.dummy_rows
      [| maps.(0); maps.(1) |]
      [| hist; Bucketing.histogram table "seniority" |]
  in
  Printf.printf "encrypting %d real rows + %d dummy rows (count mode switches to paired)\n\n"
    (Table.row_count table) (List.length dummies);
  let enc = Scheme.encrypt_table ~dummy_groups:dummies client table in

  let q1 = Query.make ~group_by:[ "department" ] (Query.Avg "salary") in
  show q1 (Scheme.query client enc q1);
  let q2 =
    Query.make ~where:[ ("seniority", str "senior") ] ~group_by:[ "department" ]
      (Query.Sum "salary")
  in
  show q2 (Scheme.query client enc q2);

  (* Value split: "eng" dominates; split it in two sub-values. *)
  print_endline "-- splitting department value \"eng\" into eng.1 / eng.2 --\n";
  let split_table = Bucketing.split_column table ~column:"department" ~value:(str "eng") ~parts:2 in
  let split_dom = Bucketing.split_domain dept_domain ~value:(str "eng") ~parts:2 in
  let split_client =
    Scheme.setup config
      ~domains:[ ("department", split_dom); ("seniority", seniority_domain) ]
      (Drbg.create "payroll-split")
  in
  let split_enc = Scheme.encrypt_table split_client split_table in
  let q3 = Query.make ~group_by:[ "department" ] (Query.Sum "salary") in
  let raw = Scheme.query split_client split_enc q3 in
  Printf.printf "  raw (split) groups: %s\n"
    (String.concat ", " (List.map (fun r -> Value.to_string (List.hd r.Scheme.group)) raw));
  let merged = Bucketing.merge_split_results raw ~position:0 ~value:(str "eng") ~parts:2 in
  show q3 merged;
  (* Cross-check against the unsplit pipeline. *)
  let reference = Scheme.query client enc q3 in
  let as_triples rs =
    List.map (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count)) rs
  in
  assert (as_triples merged = as_triples reference);
  print_endline "merged split results match the unsplit pipeline — done."
