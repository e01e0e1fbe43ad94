module P = Protocol
module Scheme = Sagma.Scheme

let call ?trace fd req =
  match Transport.call_x ?trace fd req with
  | P.Failed { code; message }, _ ->
    failwith (Printf.sprintf "%s: %s" (P.error_code_to_string code) message)
  | reply -> reply

let query ?(explain = false) fd (key : Scheme.client) ~name q =
  let tok = Scheme.token key q in
  let total_rows =
    match call fd P.List_tables with
    | P.Tables ts, _ ->
      (match List.assoc_opt name ts with
       | Some rows -> rows
       | None -> failwith (Printf.sprintf "no such remote table %S" name))
    | _ -> failwith "unexpected response"
  in
  let trace = if explain then Some { P.tc_id = None; tc_sampled = true } else None in
  match call ?trace fd (P.Aggregate { name; token = tok }) with
  | P.Aggregates agg, rt -> (Scheme.decrypt key tok agg ~total_rows, rt)
  | _ -> failwith "unexpected response"
