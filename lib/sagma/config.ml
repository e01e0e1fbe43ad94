(* Scheme-level configuration: the parameters fixed at Setup time
   (Algorithm 1) plus implementation knobs.

   The table layout follows §2: value columns (aggregated), group columns
   (GROUP BY targets) and filter columns (WHERE targets); one column may
   play several roles. *)

type t = {
  bucket_size : int;
  (* B: group-attribute values per bucket. Larger B = fewer buckets =
     less leakage, more computation (§3.2, §5, Figure 6a). *)
  max_group_attrs : int;
  (* t: the most grouping attributes allowed in one query. Bounds the
     stored monomials to m(l,t) (§4.1). *)
  value_columns : string list;   (* k value columns *)
  group_columns : string list;   (* l group columns *)
  filter_columns : string list;  (* auxiliary WHERE equality columns *)
  range_filter_columns : string list;
  (* int columns supporting BETWEEN filters through dyadic SSE keywords *)
  range_bits : int;
  (* bit width of range-filterable values: domain [0, 2^range_bits) *)
  bgn_bits : int;
  (* BGN modulus size. The paper evaluates 1024 bits (~80-bit security);
     tests/benches default smaller for speed. *)
  channel_bits : int;
  (* CRT channel modulus size (Hu et al. decryption trade-off, §6). *)
  value_bits : int;
  (* |D_V|: bit width of a value-column entry (paper: 32). *)
}

let make ?(bucket_size = 2) ?(max_group_attrs = 3) ?(filter_columns = [])
    ?(range_filter_columns = []) ?(range_bits = 16) ?(bgn_bits = 64) ?(channel_bits = 12)
    ?(value_bits = 32) ~value_columns ~group_columns () : t =
  if bucket_size < 1 then invalid_arg "Config.make: bucket_size < 1";
  if max_group_attrs < 1 then invalid_arg "Config.make: max_group_attrs < 1";
  if value_columns = [] then invalid_arg "Config.make: no value columns";
  if group_columns = [] then invalid_arg "Config.make: no group columns";
  if max_group_attrs > List.length group_columns then
    invalid_arg "Config.make: max_group_attrs exceeds group column count";
  if List.length (List.sort_uniq compare group_columns) <> List.length group_columns then
    invalid_arg "Config.make: duplicate group column";
  if range_bits < 1 || range_bits > 40 then invalid_arg "Config.make: range_bits out of range";
  { bucket_size; max_group_attrs; value_columns; group_columns; filter_columns;
    range_filter_columns; range_bits; bgn_bits; channel_bits; value_bits }

let group_column_index (c : t) (name : string) : int =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Config.group_column_index: %S is not a group column" name)
    | g :: rest -> if g = name then i else go (i + 1) rest
  in
  go 0 c.group_columns

let value_column_index (c : t) (name : string) : int =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Config.value_column_index: %S is not a value column" name)
    | v :: rest -> if v = name then i else go (i + 1) rest
  in
  go 0 c.value_columns

let num_group_columns (c : t) = List.length c.group_columns
let num_value_columns (c : t) = List.length c.value_columns
