(* Byte-identity pins for the server's aggregation output and for the
   bytes a client uploads.

   Each case runs the whole pipeline — setup, encryption, token and
   [Scheme.aggregate] — from a fixed DRBG seed and hashes the encoded
   [Aggregates] reply the server would send. The digests were recorded
   before level-1 shifts moved to signed scalars and batched Jacobian
   combinations, so they show that rewrite changed no output byte: every
   group element is normalised to the same affine point as before.

   The [uploads] group hashes encrypted tables, [append_row] results and
   [append_payload] rows and tokens in every index mode, so a change to
   how a row is encrypted or which keywords it is posted under shows up
   as a moved digest. [Serialize] sorts index entries, so these digests
   depend only on the postings, not on hash-table order.

   If a deliberate change to the scheme, the encryption or the wire
   encoding moves a digest, re-record it and say why in the commit. The
   reply digests hash the whole frame, version byte included: moving
   from protocol version 9 to 10 re-recorded them, and the previous
   tree with only its version byte set to 10 produces the same five
   digests, so no other reply byte moved. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Drbg = Sagma_crypto.Drbg
module Sha256 = Sagma_crypto.Sha256
module P = Sagma_protocol.Protocol
open Sagma

let str s = Value.Str s
let vi i = Value.Int i

let schema : Table.schema =
  [ { Table.name = "salary"; ty = Value.TInt };
    { Table.name = "gender"; ty = Value.TStr };
    { Table.name = "dept"; ty = Value.TStr } ]

let gender_domain = [ str "male"; str "female" ]
let dept_domain = [ str "Sales"; str "Finance"; str "Facility" ]

let table =
  Table.of_rows schema
    [ [| vi 1000; str "male"; str "Sales" |];
      [| vi 5000; str "female"; str "Sales" |];
      [| vi 1500; str "female"; str "Finance" |];
      [| vi 3000; str "male"; str "Sales" |];
      [| vi 2000; str "male"; str "Facility" |];
      [| vi 2500; str "female"; str "Facility" |] ]

let client ~bucket_size seed =
  let config =
    Config.make ~bucket_size ~max_group_attrs:2 ~filter_columns:[ "dept" ]
      ~value_columns:[ "salary" ] ~group_columns:[ "gender"; "dept" ] ()
  in
  Scheme.setup config
    ~domains:[ ("gender", gender_domain); ("dept", dept_domain) ]
    (Drbg.create seed)

let rows_of rs = List.map (fun (g, s, c) -> (List.map Value.to_string g, s, c)) rs

(* The reply's digest, after checking that it decrypts to the plaintext
   answer (a pinned wrong answer would be worse than none). *)
let reply_digest client (enc : Scheme.enc_table) q =
  let tok = Scheme.token client q in
  let agg = Scheme.aggregate enc tok in
  let total_rows = Array.length enc.Scheme.rows in
  Alcotest.(check (list (triple (list string) int int)))
    "decrypts to the plaintext answer"
    (rows_of
       (List.map
          (fun r -> (r.Sagma_db.Executor.group, r.Sagma_db.Executor.sum, r.Sagma_db.Executor.count))
          (Sagma_db.Executor.run table q)))
    (rows_of
       (List.map
          (fun r -> (r.Scheme.group, r.Scheme.sum, r.Scheme.count))
          (Scheme.decrypt client tok agg ~total_rows)));
  Sha256.hexdigest (P.encode_response (P.Aggregates agg))

let sum2 = Query.make ~group_by:[ "gender"; "dept" ] (Query.Sum "salary")
let count1 = Query.make ~group_by:[ "dept" ] Query.Count

let level1 =
  lazy
    (let c = client ~bucket_size:2 "golden-level1" in
     let enc = Scheme.encrypt_table c table in
     assert (enc.Scheme.count_mode = Scheme.Count_level1);
     (c, enc))

let paired =
  lazy
    (let c = client ~bucket_size:2 "golden-paired" in
     let hist col = Bucketing.histogram table col in
     let dummies =
       Bucketing.dummy_rows c.Scheme.mappings [| hist "gender"; hist "dept" |]
     in
     let enc = Scheme.encrypt_table ~dummy_groups:dummies c table in
     assert (enc.Scheme.count_mode = Scheme.Count_paired);
     (c, enc))

(* B = 3: indicator coefficients such as 1/2 mod n are full-width
   scalars, so this case runs real ladders rather than ±1 additions. *)
let wide =
  lazy
    (let c = client ~bucket_size:3 "golden-wide" in
     (c, Scheme.encrypt_table c table))

(* §3.3 packed shifts: per-channel level-2 sums and level-1 counts. *)
let test_dynamic () =
  let c =
    Dynamic.setup ~bgn_bits:64 ~value_bits:12 ~channel_bits:8 ~bucket_size:2
      ~domain:[ str "male"; str "female"; str "other" ] (Drbg.create "golden-dynamic")
  in
  let rows =
    List.map
      (fun (v, g) -> Dynamic.enc_row c ~value:v ~group:(str g))
      [ (10, "male"); (20, "female"); (5, "male"); (7, "other"); (40, "female") ]
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (a : Dynamic.bucket_aggregate) ->
      Buffer.add_string buf (string_of_int a.Dynamic.agg_bucket);
      Array.iter (fun s -> Buffer.add_string buf (Sagma_pairing.Fp2.serialize s)) a.Dynamic.sum_cts;
      Array.iter (fun s -> Buffer.add_string buf (Sagma_pairing.Curve.serialize s)) a.Dynamic.count_cts)
    (Dynamic.aggregate c rows);
  Alcotest.(check string) "dynamic aggregates"
    "bf70025c49e9b62d428084aac0b28799713cfe12ae92b08f0db054fb3286c0e0"
    (Sha256.hexdigest (Buffer.contents buf))

let cases =
  [ ("level-1 count: 2-attribute SUM", level1, sum2,
     "0c247e7606f7e7128e5677e8bdbaf2e17a7de3f533fea607f945c17ebd4c08cc");
    ("level-1 count: COUNT", level1, count1,
     "6f295256fe015e81e8542f55ef54fb28c406c0d952d4234a9d38ac04f8848315");
    ("paired count: COUNT with dummy rows", paired, count1,
     "b8a8b4cc0f8148c8a5ea4c02419b32c38802bbfe77bb9f268665a84c57217adc");
    ("paired count: 2-attribute SUM with dummy rows", paired, sum2,
     "3fe1a8b76804f83d941b61c96a1227d2cae73a46b1036019e59aae2fed2faf49");
    ("B = 3: 2-attribute SUM", wide, sum2,
     "7d7e200dd6012242aa29ec50872c82d1fc5005e077b4cb1daf9169c3514ed085") ]

(* Uploads: a config with an equality filter column and a range-filter
   column, so every keyword family (grp/jgrp, flt, rng) is posted. Each
   case builds its own client, so DRBG draws do not depend on the order
   the cases run in. *)
let upload_client seed =
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:2 ~filter_columns:[ "dept" ]
      ~range_filter_columns:[ "salary" ] ~value_columns:[ "salary" ]
      ~group_columns:[ "gender"; "dept" ] ()
  in
  Scheme.setup config
    ~domains:[ ("gender", gender_domain); ("dept", dept_domain) ]
    (Drbg.create seed)

let mode_name = function
  | Scheme.Per_attribute -> "Per_attribute"
  | Scheme.Joint -> "Joint"
  | Scheme.Oxt_conjunctive -> "Oxt_conjunctive"

let table_digest enc = Sha256.hexdigest (Serialize.enc_table_to_string enc)

let new_row = [| str "female"; str "Finance" |]

let upload_table index_mode () =
  let c = upload_client ("golden-upload-" ^ mode_name index_mode) in
  table_digest (Scheme.encrypt_table ~index_mode c table)

let upload_dummies () =
  let c = upload_client "golden-upload-dummies" in
  let hist col = Bucketing.histogram table col in
  let dummies = Bucketing.dummy_rows c.Scheme.mappings [| hist "gender"; hist "dept" |] in
  assert (dummies <> []);
  table_digest (Scheme.encrypt_table ~dummy_groups:dummies c table)

let upload_append_row index_mode () =
  let c = upload_client ("golden-append-" ^ mode_name index_mode) in
  let enc = Scheme.encrypt_table ~index_mode c table in
  table_digest
    (Scheme.append_row ~range_values:[ ("salary", 4200) ] c enc ~values:[| 4200 |]
       ~groups:new_row ~filters:[ ("dept", str "Finance") ])

let upload_append_payload index_mode () =
  let c = upload_client ("golden-payload-" ^ mode_name index_mode) in
  let row, tokens =
    Scheme.append_payload ~index_mode ~range_values:[ ("salary", 4200) ] c ~values:[| 4200 |]
      ~groups:new_row ~filters:[ ("dept", str "Finance") ]
  in
  Sha256.hexdigest
    (String.concat ""
       (Sagma_wire.Wire.encode Serialize.put_enc_row row
        :: List.map Sagma_sse.Sse.token_id tokens))

let upload_cases =
  [ ("Per_attribute table", upload_table Scheme.Per_attribute,
     "01804fc5f194f7ca7c4e277a8d473f88b78e73b7b2c8dcacab8360397a59e3fb");
    ("Joint table", upload_table Scheme.Joint,
     "964ff17b9b21fd800dcd11a8d830c230c9c97b840c8d03cd6f3b850b776a3417");
    ("Oxt_conjunctive table", upload_table Scheme.Oxt_conjunctive,
     "91d124ccf44fa265218075b2f167c54f73ac224e13f7543fe27f4747cb80128a");
    ("table with dummy rows", upload_dummies,
     "05813d2e0be63f0a967ce433fa114fc3cf4dd96855123796f96b1e0160f120dc");
    ("append_row Per_attribute", upload_append_row Scheme.Per_attribute,
     "7378832b33571a15a4a3a139662cafcf11e3e66fb9ab889dc6368ee1c222d76e");
    ("append_row Joint", upload_append_row Scheme.Joint,
     "1cef6c73e5519d4cee1502c678a95eddf56652748b67f89b6e9623eb5974487f");
    ("append_row Oxt_conjunctive", upload_append_row Scheme.Oxt_conjunctive,
     "9dc4cf939c21cea25dcd8b26aa256806069aa312eba75e48f3e65ff32e5f7c78");
    ("append_payload Per_attribute", upload_append_payload Scheme.Per_attribute,
     "e145043802863234d4bc49e02c252b2a6c046ce51ff1223d1fe197b7355805ef");
    ("append_payload Joint", upload_append_payload Scheme.Joint,
     "6d3dc3e26ce261df83573982d91f91c2b73f65bb071c9fe62fc5e26d2fd43726") ]

let () =
  Alcotest.run "test_golden"
    [ ( "aggregates reply",
        List.map
          (fun (name, setup, q, digest) ->
            Alcotest.test_case name `Quick (fun () ->
                let c, enc = Lazy.force setup in
                Alcotest.(check string) "reply digest" digest (reply_digest c enc q)))
          cases
        @ [ Alcotest.test_case "dynamic shifts" `Quick test_dynamic ] );
      ( "uploads",
        List.map
          (fun (name, digest_of, digest) ->
            Alcotest.test_case name `Quick (fun () ->
                Alcotest.(check string) "upload digest" digest (digest_of ())))
          upload_cases ) ]
