(* Plaintext reference executor: the correctness oracle every encrypted
   scheme in this repository is tested against. *)

type result_row = {
  group : Value.t list;  (* grouping attribute values, in GROUP BY order *)
  sum : int;             (* SUM of the value column (0 for COUNT) *)
  count : int;           (* group cardinality *)
}

(* The aggregate the query asked for, derived from sum/count. *)
let aggregate_value (q : Query.t) (r : result_row) : float =
  match q.aggregate with
  | Query.Sum _ -> float_of_int r.sum
  | Query.Count -> float_of_int r.count
  | Query.Avg _ -> if r.count = 0 then 0. else float_of_int r.sum /. float_of_int r.count

let matches_where (t : Table.t) (where : (string * Value.t) list) (row : Value.t array) : bool =
  List.for_all (fun (col, v) -> Value.equal row.(Table.column_index t col) v) where

let matches_ranges (t : Table.t) (ranges : (string * int * int) list) (row : Value.t array) :
    bool =
  List.for_all
    (fun (col, lo, hi) ->
      let v = Value.as_int row.(Table.column_index t col) in
      lo <= v && v <= hi)
    ranges

(* [run t q] evaluates [q] over [t]; result rows are sorted by group key
   so comparisons are order-insensitive. *)
let run (t : Table.t) (q : Query.t) : result_row list =
  let group_idxs = List.map (Table.column_index t) q.Query.group_by in
  let value_idx = Option.map (Table.column_index t) (Query.value_column q.Query.aggregate) in
  let groups : (Value.t list, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun row ->
      if matches_where t q.Query.where row && matches_ranges t q.Query.ranges row then begin
        let key = List.map (fun i -> row.(i)) group_idxs in
        let v = match value_idx with Some i -> Value.as_int row.(i) | None -> 0 in
        let sum, count = Option.value (Hashtbl.find_opt groups key) ~default:(0, 0) in
        Hashtbl.replace groups key (sum + v, count + 1)
      end)
    (Table.rows t);
  Hashtbl.fold (fun group (sum, count) acc -> { group; sum; count } :: acc) groups []
  |> List.sort (fun a b -> Stdlib.compare (List.map Value.to_string a.group) (List.map Value.to_string b.group))
