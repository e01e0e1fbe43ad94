(* Byte-identity pins for the server's aggregation output.

   Each case runs the whole pipeline — setup, encryption, token and
   [Scheme.aggregate] — from a fixed DRBG seed and hashes the encoded
   [Aggregates] reply the server would send. The digests were recorded
   before level-1 shifts moved to signed scalars and batched Jacobian
   combinations, so they show that rewrite changed no output byte: every
   group element is normalised to the same affine point as before.

   If a deliberate change to the scheme, the encryption or the wire
   encoding moves a digest, re-record it and say why in the commit. *)

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
     "5ed10b827795aaf4598b349c591067b547841684088da02d419da147d5c4d47c");
    ("level-1 count: COUNT", level1, count1,
     "8d5972b9ea3e229ce0d914af46a2d33a4358270bc3471034bd9aa41434e515fc");
    ("paired count: COUNT with dummy rows", paired, count1,
     "5bd2720e8a02d41bba0fecbf549d13c3dac2a5e68212d1fa5800c56bd3873846");
    ("paired count: 2-attribute SUM with dummy rows", paired, sum2,
     "9451f5ce69b08eab5655ce2a08d6e45790d85cf40dd782be0fb293d0cfc23a1b");
    ("B = 3: 2-attribute SUM", wide, sum2,
     "4aa132867a618c78f092bf4f225d5b23d704fd11444b628fd40e788d9fa5bb97") ]

let () =
  Alcotest.run "test_golden"
    [ ( "aggregates reply",
        List.map
          (fun (name, setup, q, digest) ->
            Alcotest.test_case name `Quick (fun () ->
                let c, enc = Lazy.force setup in
                Alcotest.(check string) "reply digest" digest (reply_digest c enc q)))
          cases
        @ [ Alcotest.test_case "dynamic shifts" `Quick test_dynamic ] ) ]
