(* Random relational scenarios: a schema with value/group/filter
   columns, a table whose group cells stay inside declared domains, and
   a batch of aggregation queries over them.

   This is the shared input shape of the differential oracle
   (test/test_prop_oracle.ml): every encrypted scheme in the repository
   answers the same Query.t over the same Table.t as the plaintext
   executor, so one generator feeds them all. Group domains are
   generated alongside the table because SAGMA's Setup (Algorithm 1)
   requires each group column's full domain up front. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query

type scenario = {
  bucket_size : int;
  max_group_attrs : int;
  value_columns : string list;
  group_domains : (string * Value.t list) list;
  filter_domains : (string * Value.t list) list;
  schema : Table.schema;
  rows : Value.t array list;
  table : Table.t;
  queries : Query.t list;
}

let string_pool = [ "alpha"; "beta"; "gamma"; "delta"; "eps"; "zeta"; "eta"; "theta" ]

(* Distinct domain of 1..max_size values, string- or int-typed. *)
let domain_gen ~(max_size : int) : Value.t list Gen.t =
  Gen.bind (Gen.int_range 1 max_size) (fun n ->
      Gen.bind Gen.bool (fun strs ->
          if strs then
            Gen.map
              (fun pool -> List.filteri (fun i _ -> i < n) pool)
              (Gen.shuffle string_pool)
            |> Gen.map (List.map (fun s -> Value.Str s))
          else
            Gen.map
              (fun pool -> List.filteri (fun i _ -> i < n) pool)
              (Gen.shuffle [ 0; 1; 2; 3; 4; 5; 6; 7 ])
            |> Gen.map (List.map (fun i -> Value.Int i))))

(* Random GROUP BY subset (≤ t), SUM/COUNT/AVG, optional equality
   filter — sometimes on a value absent from the table. *)
let query_gen (sc_groups : (string * Value.t list) list)
    (sc_filters : (string * Value.t list) list) (value_columns : string list)
    ~(max_group_attrs : int) : Query.t Gen.t =
 fun d ->
  let group_names = List.map fst sc_groups in
  let picked = Gen.subset group_names d in
  let group_by = List.filteri (fun i _ -> i < max_group_attrs) picked in
  let vcol = Gen.oneofl value_columns d in
  let aggregate =
    Gen.frequency
      [ (3, Gen.return (Query.Sum vcol)); (1, Gen.return Query.Count);
        (1, Gen.return (Query.Avg vcol)) ]
      d
  in
  let where =
    if sc_filters = [] || Gen.int_below 3 d > 0 then []
    else begin
      let col, dom = Gen.oneofl sc_filters d in
      (* Occasionally filter on a value absent from the table, so empty
         results stay covered. *)
      [ (col, Gen.oneofl dom d) ]
    end
  in
  Query.make ~where ~group_by aggregate

let scenario_gen ?(max_rows = 12) ?(max_queries = 3) () : scenario Gen.t =
 fun d ->
  let num_groups = Gen.int_range 1 3 d in
  let group_domains =
    List.init num_groups (fun i ->
        (Printf.sprintf "g%d" i, domain_gen ~max_size:6 d))
  in
  let value_columns = [ "v0" ] in
  let with_filter = Gen.bool d in
  let filter_domains =
    if with_filter then [ ("f0", List.map (fun s -> Value.Str s) [ "x"; "y"; "z" ]) ] else []
  in
  let bucket_size = Gen.int_range 1 3 d in
  let max_group_attrs = Gen.int_range 1 num_groups d in
  let schema =
    List.map (fun c -> { Table.name = c; ty = Value.TInt }) value_columns
    @ List.map
        (fun (c, dom) -> { Table.name = c; ty = Value.ty_of (List.hd dom) })
        group_domains
    @ List.map (fun (c, _) -> { Table.name = c; ty = Value.TStr }) filter_domains
  in
  let num_rows = Gen.size ~hi:max_rows () d in
  let rows =
    List.init num_rows (fun _ ->
        Array.of_list
          (List.map (fun _ -> Value.Int (Gen.int_edgy 0 99 d)) value_columns
          @ List.map (fun (_, dom) -> Gen.oneofl dom d) group_domains
          @ List.map (fun (_, dom) -> Gen.oneofl dom d) filter_domains))
  in
  let table = Table.of_rows schema rows in
  let num_queries = Gen.int_range 1 max_queries d in
  let queries =
    List.init num_queries (fun _ ->
        query_gen group_domains filter_domains value_columns ~max_group_attrs d)
  in
  { bucket_size; max_group_attrs; value_columns; group_domains; filter_domains; schema; rows;
    table; queries }

(* An equal-leakage pair: the §4.2 leakage function sees only bucket and
   filter keywords (derived from group/filter cells) plus public shapes,
   never the aggregated values — so two tables sharing every group and
   filter cell but differing in a value column have identical leakage
   under any query sequence. That is exactly the precondition of the
   simulator-indistinguishability game; the generator enforces it by
   construction (value columns sit first in the scenario schema), and a
   property in test_games re-checks it through Leakage.profile. *)
let equal_leakage_pair_gen ?(max_rows = 8) ?(max_queries = 3) () :
    (scenario * Table.t) Gen.t =
 fun d ->
  let sc = scenario_gen ~max_rows ~max_queries () d in
  (* At least one row, so "different plaintexts" is satisfiable. *)
  let sc =
    if sc.rows <> [] then sc
    else begin
      let row =
        Array.of_list
          (List.map (fun _ -> Value.Int (Gen.int_edgy 0 99 d)) sc.value_columns
          @ List.map (fun (_, dom) -> Gen.oneofl dom d) sc.group_domains
          @ List.map (fun (_, dom) -> Gen.oneofl dom d) sc.filter_domains)
      in
      let rows = [ row ] in
      { sc with rows; table = Table.of_rows sc.schema rows }
    end
  in
  let num_values = List.length sc.value_columns in
  let rows' =
    List.map
      (fun row ->
        let row' = Array.copy row in
        for j = 0 to num_values - 1 do
          (* (v + k) mod 100 with k in [1, 99] never maps v to itself,
             so every value cell of the twin differs. *)
          match row'.(j) with
          | Value.Int v -> row'.(j) <- Value.Int ((v + Gen.int_range 1 99 d) mod 100)
          | _ -> ()
        done;
        row')
      sc.rows
  in
  (sc, Table.of_rows sc.schema rows')

(* Shrinking drops rows first (the usual culprit carrier), then queries. *)
let scenario_shrink : scenario Shrink.t =
 fun sc ->
  let with_rows rows = { sc with rows; table = Table.of_rows sc.schema rows } in
  let with_queries queries = { sc with queries } in
  Seq.append
    (Seq.map with_rows (Shrink.list () sc.rows))
    (Seq.filter_map
       (fun qs -> if qs = [] then None else Some (with_queries qs))
       (Shrink.list () sc.queries))

let print_scenario (sc : scenario) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "bucket_size=%d max_group_attrs=%d\n" sc.bucket_size sc.max_group_attrs);
  List.iter
    (fun (c, dom) ->
      Buffer.add_string b
        (Printf.sprintf "domain %s = {%s}\n" c
           (String.concat ", " (List.map Value.to_string dom))))
    sc.group_domains;
  Buffer.add_string b (Format.asprintf "%a" Table.pp sc.table);
  List.iter (fun q -> Buffer.add_string b (Query.to_sql q ^ "\n")) sc.queries;
  Buffer.contents b
