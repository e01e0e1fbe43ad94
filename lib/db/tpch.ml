(* Synthetic TPC-H [lineitem] rows.

   The paper's evaluation (§6.1) aggregates the TPC-H lineitem table. The
   official dbgen tool is unavailable in this environment, so we generate
   rows with the same columns and value distributions the aggregation
   benchmarks exercise: small categorical group columns and integer value
   columns. Aggregation cost depends only on row count and the bucket
   structure of the group columns, so this preserves the experiments'
   behaviour. Generation is deterministic given the DRBG seed. *)

module Drbg = Sagma_crypto.Drbg

let schema : Table.schema =
  [ { Table.name = "l_orderkey"; ty = Value.TInt };
    { Table.name = "l_quantity"; ty = Value.TInt };
    { Table.name = "l_extendedprice"; ty = Value.TInt };
    { Table.name = "l_discount"; ty = Value.TInt };      (* percent, 0..10 *)
    { Table.name = "l_returnflag"; ty = Value.TStr };    (* A | N | R *)
    { Table.name = "l_linestatus"; ty = Value.TStr };    (* O | F *)
    { Table.name = "l_shipmode"; ty = Value.TStr };      (* 7 modes *)
    { Table.name = "l_shipmonth"; ty = Value.TInt };     (* 1..12 *)
    { Table.name = "l_shippriority"; ty = Value.TInt } ] (* 0..4 *)

let ship_modes = [| "AIR"; "FOB"; "MAIL"; "RAIL"; "REG AIR"; "SHIP"; "TRUCK" |]

(* TPC-H returnflag correlates with linestatus; reproduce the dependence
   coarsely: recent shipments are N/O, older ones A/F or R/F. *)
let flags_and_status (d : Drbg.t) =
  match Drbg.int_below d 2 with
  | 0 -> ("N", "O")
  | _ -> if Drbg.bool d then ("A", "F") else ("R", "F")

let random_row (d : Drbg.t) (i : int) : Value.t array =
  let quantity = 1 + Drbg.int_below d 50 in
  (* extendedprice ≈ quantity * unit price in [901, 2098]. *)
  let price = quantity * (901 + Drbg.int_below d 1198) in
  let flag, status = flags_and_status d in
  [| Value.Int (1 + (i / 4));
     Value.Int quantity;
     Value.Int price;
     Value.Int (Drbg.int_below d 11);
     Value.Str flag;
     Value.Str status;
     Value.Str ship_modes.(Drbg.int_below d (Array.length ship_modes));
     Value.Int (1 + Drbg.int_below d 12);
     Value.Int (Drbg.int_below d 5) |]

(* [generate ~rows d] builds a deterministic lineitem table. *)
let generate ~(rows : int) (d : Drbg.t) : Table.t =
  Table.of_rows schema (List.init rows (fun i -> random_row d i))

(* The evaluation's canonical queries over lineitem. *)
let query_sum_by_returnflag =
  Query.make ~group_by:[ "l_returnflag" ] (Query.Sum "l_extendedprice")

let query_count_by_flag_status =
  Query.make ~group_by:[ "l_returnflag"; "l_linestatus" ] Query.Count
