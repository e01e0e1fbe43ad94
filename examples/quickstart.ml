(* Quickstart: the paper's running example, end to end.

   Encrypts Table 1, runs Listing 1 (filtered) and Listing 2
   (multi-attribute GROUP BY) over the ciphertexts only, and prints the
   results the paper shows in Table 2 and Table 7.

     dune exec examples/quickstart.exe                                     *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

(* Table 1 of the paper. *)
let schema : Table.schema =
  [ { Table.name = "ID"; ty = Value.TInt };
    { Table.name = "Salary"; ty = Value.TInt };
    { Table.name = "Gender"; ty = Value.TStr };
    { Table.name = "Name"; ty = Value.TStr };
    { Table.name = "Department"; ty = Value.TStr } ]

let table =
  Table.of_rows schema
    [ [| vi 1; vi 1000; str "male"; str "Henry"; str "Sales" |];
      [| vi 2; vi 5000; str "female"; str "Jessica"; str "Sales" |];
      [| vi 3; vi 1500; str "female"; str "Alice"; str "Finance" |];
      [| vi 4; vi 3000; str "male"; str "Bob"; str "Sales" |];
      [| vi 5; vi 2000; str "male"; str "Paul"; str "Facility" |] ]

let print_results (q : Query.t) (rs : Scheme.result_row list) =
  Printf.printf "  %s\n" (Query.to_sql q);
  Printf.printf "  %-12s | %s\n" (Query.aggregate_name q.Query.aggregate)
    (String.concat " | " q.Query.group_by);
  List.iter
    (fun r ->
      Printf.printf "  %-12g | %s\n"
        (Scheme.aggregate_value q r)
        (String.concat " | " (List.map Value.to_string r.Scheme.group)))
    rs;
  print_newline ()

let () =
  print_endline "== SAGMA quickstart: the paper's worked example ==\n";
  (* 1. Setup (Algorithm 1): fix the scheme parameters and the group
     column domains. B = 2 and t = 2 as in §3.4's walkthrough. *)
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2
      ~filter_columns:[ "Department" ]
      ~value_columns:[ "Salary" ]
      ~group_columns:[ "Gender"; "Department" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:
        [ ("Gender", [ str "male"; str "female" ]);
          ("Department", [ str "Sales"; str "Finance"; str "Facility" ]) ]
      (Drbg.create "quickstart")
  in
  (* 2. EncTable (Algorithm 2): encrypt and "outsource". The server-side
     value holds only BGN ciphertexts and an SSE index. *)
  let enc = Scheme.encrypt_table client table in
  Printf.printf "encrypted %d rows: %d monomial ciphertexts/row, %d CRT channels, SSE index of %d entries\n\n"
    (Array.length enc.Scheme.rows)
    (Array.length enc.Scheme.rows.(0).Scheme.monomial_cts)
    (Array.length enc.Scheme.rows.(0).Scheme.values.(0))
    (Sagma_sse.Sse.size enc.Scheme.index);
  (* 3. Listing 2: GROUP BY Gender, Department (paper Table 7). *)
  let q2 = Query.make ~group_by:[ "Gender"; "Department" ] (Query.Sum "Salary") in
  print_results q2 (Scheme.query client enc q2);
  (* 4. Listing 1: the same with WHERE Department = 'Sales' (Table 2).
     Filtering runs server-side through the SSE index. *)
  let q1 =
    Query.make
      ~where:[ ("Department", str "Sales") ]
      ~group_by:[ "Gender"; "Department" ]
      (Query.Sum "Salary")
  in
  print_results q1 (Scheme.query client enc q1);
  (* 5. COUNT and AVG ride the same machinery. *)
  let qc = Query.make ~group_by:[ "Department" ] Query.Count in
  print_results qc (Scheme.query client enc qc);
  let qa = Query.make ~group_by:[ "Gender" ] (Query.Avg "Salary") in
  print_results qa (Scheme.query client enc qa);
  (* 6. Appends ride the update path (EncRow + SSE posting extension). *)
  let enc =
    Scheme.append_row client enc ~values:[| 4500 |] ~groups:[| str "female"; str "Finance" |]
      ~filters:[]
  in
  Printf.printf "after appending one encrypted row (%d total):\n" (Array.length enc.Scheme.rows);
  print_results q2 (Scheme.query client enc q2)
