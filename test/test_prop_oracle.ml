(* Differential oracle: random tables and random GROUP BY / WHERE
   aggregation queries, answered through the full encrypted pipeline
   (Scheme.setup → encrypt_table → Scheme.query: Token → Aggregate →
   Decrypt) and
   through the plaintext Executor — the two must agree exactly. The
   CryptDB, Seabed and ASHE baselines are held to the same oracle, so
   every aggregation scheme in the repository is cross-checked against
   the same random workload. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table
module Query = Sagma_db.Query
module Executor = Sagma_db.Executor
module Drbg = Sagma_crypto.Drbg
module B = Sagma_baselines
module Gen = Sagma_prop.Gen
module Dbgen = Sagma_prop.Dbgen
module R = Sagma_prop.Runner
open Sagma

let scenario_arb =
  R.arbitrary ~shrink:Dbgen.scenario_shrink ~print:Dbgen.print_scenario
    (Dbgen.scenario_gen ~max_rows:10 ~max_queries:3 ())

(* Results normalized to a comparable, order-independent form. *)
let norm rows = List.sort compare rows

let oracle_results table q =
  norm
    (List.map
       (fun r -> (List.map Value.to_string r.Executor.group, r.Executor.sum, r.Executor.count))
       (Executor.run table q))

(* SAGMA_PROP_WORKERS=n (n > 1) runs every encrypted aggregation on an
   n-domain pool, so the differential oracle also cross-checks the
   concurrent aggregation path against the plaintext executor. *)
let pool =
  match Option.bind (Sys.getenv_opt "SAGMA_PROP_WORKERS") int_of_string_opt with
  | Some n when n > 1 ->
    let p = Sagma_pool.Pool.create ~name:"prop-oracle" ~workers:(n - 1) () in
    at_exit (fun () -> Sagma_pool.Pool.shutdown p);
    Some p
  | _ -> None

let sagma_results client enc q =
  norm
    (List.map
       (fun r -> (List.map Value.to_string r.Scheme.group, r.Scheme.sum, r.Scheme.count))
       (Scheme.query ?pool client enc q))

let report q expected got =
  Printf.printf "    %s\n      oracle:    %s\n      encrypted: %s\n" (Query.to_sql q)
    (String.concat " | "
       (List.map (fun (g, s, c) -> Printf.sprintf "%s: sum=%d count=%d" (String.concat "," g) s c)
          expected))
    (String.concat " | "
       (List.map (fun (g, s, c) -> Printf.sprintf "%s: sum=%d count=%d" (String.concat "," g) s c)
          got));
  false

(* Algorithm 1 for the scenario's configuration and domains. *)
let setup (sc : Dbgen.scenario) seed =
  let config =
    Config.make ~bucket_size:sc.bucket_size ~max_group_attrs:sc.max_group_attrs
      ~filter_columns:(List.map fst sc.filter_domains) ~value_columns:sc.value_columns
      ~group_columns:(List.map fst sc.group_domains) ()
  in
  Scheme.setup config ~domains:sc.group_domains (Drbg.create seed)

(* --- SAGMA vs plaintext ------------------------------------------------------- *)

let t_sagma = R.test ~count:12 ~name:"SAGMA = plaintext oracle" scenario_arb
    (fun sc ->
      let client = setup sc "prop-oracle" in
      let enc = Scheme.encrypt_table client sc.table in
      List.for_all
        (fun q ->
          let expected = oracle_results sc.table q in
          let got = sagma_results client enc q in
          got = expected || report q expected got)
        sc.queries)

(* Dummy rows (§5) must change no query result: they carry Enc(0)
   indicators and the dummy-safe paired count. *)
let t_sagma_dummies = R.test ~count:6 ~name:"SAGMA with dummy rows = oracle" scenario_arb
    (fun sc ->
      let client = setup sc "prop-oracle-dummy" in
      let dummy =
        Array.of_list (List.map (fun (_, dom) -> List.hd dom) sc.group_domains)
      in
      let enc = Scheme.encrypt_table ~dummy_groups:[ dummy; dummy ] client sc.table in
      List.for_all
        (fun q ->
          let expected = oracle_results sc.table q in
          let got = sagma_results client enc q in
          got = expected || report q expected got)
        sc.queries)

(* --- baselines against the same oracle ---------------------------------------- *)

let t_cryptdb = R.test ~count:8 ~name:"CryptDB baseline = oracle" scenario_arb
    (fun sc ->
      let client =
        B.Cryptdb.setup ~paillier_bits:256 ~value_columns:sc.value_columns
          ~group_columns:(List.map fst sc.group_domains)
          ~filter_columns:(List.map fst sc.filter_domains)
          (Drbg.create "prop-cryptdb")
      in
      let enc = B.Cryptdb.encrypt_table client sc.table in
      List.for_all
        (fun q ->
          let expected = oracle_results sc.table q in
          let got =
            norm
              (List.map
                 (fun r ->
                   ( List.map Value.to_string r.B.Cryptdb.group,
                     r.B.Cryptdb.sum, r.B.Cryptdb.count ))
                 (B.Cryptdb.query client enc q))
          in
          got = expected || report q expected got)
        sc.queries)

let t_seabed = R.test ~count:8 ~name:"Seabed baseline = oracle (single attribute)" scenario_arb
    (fun sc ->
      let gcol, gdom = List.hd sc.group_domains in
      let vcol = List.hd sc.value_columns in
      (* Splitting the domain into common/uncommon exercises both the
         splayed ASHE columns and the deterministic overflow column. *)
      let common = List.filteri (fun i _ -> i mod 2 = 0) gdom in
      let client = B.Seabed.setup ~common (Drbg.create "prop-seabed") in
      let enc =
        B.Seabed.encrypt_table client sc.table ~value_column:vcol ~group_column:gcol
      in
      let q = Query.make ~group_by:[ gcol ] (Query.Sum vcol) in
      let expected = oracle_results sc.table q in
      let results, _ops = B.Seabed.query client enc in
      let got =
        norm
          (List.map
             (fun r -> ([ Value.to_string r.B.Seabed.group ], r.B.Seabed.sum, r.B.Seabed.count))
             results)
      in
      got = expected || report q expected got)

let t_ashe = R.test ~count:60 ~name:"ASHE sums additively"
    (R.arbitrary
       ~print:(fun (seed, ms) ->
         Printf.sprintf "seed=%S [%s]" seed (String.concat "; " (List.map string_of_int ms)))
       (Gen.pair (Gen.bytes_size (Gen.return 8))
          (Gen.list ~max_len:24 (Gen.int_edgy 0 (B.Ashe.modulus - 1)))))
    (fun (seed, ms) ->
      let k = B.Ashe.gen_key (Drbg.create ("prop-ashe|" ^ seed)) in
      let c, _ =
        List.fold_left
          (fun (acc, id) m -> (B.Ashe.add acc (B.Ashe.encrypt k ~id m), id + 1))
          (B.Ashe.zero, 0) ms
      in
      B.Ashe.decrypt k c = List.fold_left (fun a m -> (a + m) mod B.Ashe.modulus) 0 ms)

(* --- aggregate-value agreement ------------------------------------------------ *)

let t_agg_value = R.test ~count:8 ~name:"SUM/COUNT/AVG values agree with oracle" scenario_arb
    (fun sc ->
      let client = setup sc "prop-oracle-agg" in
      let enc = Scheme.encrypt_table client sc.table in
      List.for_all
        (fun q ->
          let expected =
            norm
              (List.map
                 (fun r ->
                   (List.map Value.to_string r.Executor.group, Executor.aggregate_value q r))
                 (Executor.run sc.table q))
          in
          let got =
            norm
              (List.map
                 (fun r ->
                   (List.map Value.to_string r.Scheme.group, Scheme.aggregate_value q r))
                 (Scheme.query client enc q))
          in
          got = expected)
        sc.queries)

let () =
  R.run ~suite:"test_prop_oracle"
    [ t_sagma; t_sagma_dummies; t_cryptdb; t_seabed; t_ashe; t_agg_value ]
