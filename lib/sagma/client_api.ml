(* Facade bundling a Scheme.client with its current encrypted table, so
   the common single-table workflow is create/encrypt/query/append
   instead of hand-threading tables, index modes and row counts through
   the algorithm-level API. Pure delegation — no crypto lives here. *)

module Drbg = Sagma_crypto.Drbg
module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query

type t = {
  client : Scheme.client;
  mutable table : Scheme.enc_table option;
}

let create ?mapping_strategy ?(seed = "sagma-client") ~config ~domains () : t =
  let client =
    match mapping_strategy with
    | None -> Scheme.setup config ~domains (Drbg.create seed)
    | Some strategy -> Scheme.setup ~mapping_strategy:strategy config ~domains (Drbg.create seed)
  in
  { client; table = None }

let mappings (t : t) : Mapping.t array = t.client.Scheme.mappings

let encrypt ?dummy_groups ?index_mode (t : t) ~(table : Table.t) : unit =
  t.table <- Some (Scheme.encrypt_table ?dummy_groups ?index_mode t.client table)

let encrypted (t : t) : Scheme.enc_table =
  match t.table with
  | Some et -> et
  | None -> invalid_arg "Client_api: no table encrypted yet"

let row_count (t : t) : int =
  match t.table with None -> 0 | Some et -> Array.length et.Scheme.rows

let query ?index_mode ?oxt_rows ?pool (t : t) (q : Query.t) : Scheme.result_row list =
  Scheme.query ?index_mode ?oxt_rows ?pool t.client (encrypted t) q

let append ?range_values ?(filters = []) (t : t) ~(values : int array)
    ~(groups : Value.t array) : unit =
  t.table <- Some (Scheme.append_row ?range_values t.client (encrypted t) ~values ~groups ~filters)
