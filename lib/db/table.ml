(* In-memory relational tables: a schema plus row-major cells. *)

type column = { name : string; ty : Value.ty }

type schema = column list

type t = {
  schema : schema;
  rows : Value.t array list;  (* in insertion order *)
}

let make (schema : schema) : t =
  let names = List.map (fun c -> c.name) schema in
  let uniq = List.sort_uniq compare names in
  if List.length uniq <> List.length names then invalid_arg "Table.make: duplicate column";
  { schema; rows = [] }

let schema t = t.schema
let row_count t = List.length t.rows
let rows t = t.rows
let column_names t = List.map (fun c -> c.name) t.schema

let column_index (t : t) (name : string) : int =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Table.column_index: no column %S" name)
    | c :: rest -> if c.name = name then i else go (i + 1) rest
  in
  go 0 t.schema

let column_ty (t : t) (name : string) : Value.ty =
  (List.nth t.schema (column_index t name)).ty

(* Append a row, checking arity and types. *)
let insert (t : t) (row : Value.t array) : t =
  if Array.length row <> List.length t.schema then invalid_arg "Table.insert: arity mismatch";
  List.iteri
    (fun i c ->
      if Value.ty_of row.(i) <> c.ty then
        invalid_arg (Printf.sprintf "Table.insert: type mismatch in column %S" c.name))
    t.schema;
  { t with rows = t.rows @ [ row ] }

(* Bulk build without the quadratic append. *)
let of_rows (schema : schema) (rows : Value.t array list) : t =
  let t = make schema in
  List.iter
    (fun row ->
      if Array.length row <> List.length schema then invalid_arg "Table.of_rows: arity mismatch")
    rows;
  { t with rows }

(* Distinct values of a column, sorted. *)
let distinct (t : t) (name : string) : Value.t list =
  let idx = column_index t name in
  List.sort_uniq Value.compare (List.map (fun r -> r.(idx)) t.rows)

let pp fmt (t : t) =
  Format.fprintf fmt "%s@." (String.concat " | " (column_names t));
  List.iter
    (fun row ->
      Format.fprintf fmt "%s@."
        (String.concat " | " (Array.to_list (Array.map Value.to_string row))))
    t.rows
