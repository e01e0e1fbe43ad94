(* The security-games suite: every paper-level security claim runs as an
   adversary-vs-oracle game that wins or loses with a replayable seed.

   - IND-CPA for BGN and Paillier (left-or-right oracle): the built-in
     distinguisher must stay statistically indistinguishable from a coin
     flip, while the deliberately leaky variants (plaintext bit copied
     into the ciphertext) must be distinguished — proving the game can
     lose.
   - The §4.2 simulator-indistinguishability game: real SAGMA/SSE
     transcripts over adversary-chosen equal-leakage table pairs vs.
     Leakage.simulate output; the leaky-SSE variant (access patterns
     skipping dummy rows) must be won by the adversary.
   - Properties: the equal-leakage pair generator really produces
     equal-leakage/different-plaintext pairs (the game's precondition);
     Leakage.simulate is deterministic per seed (byte-identical
     transcripts, pinned regression digest) and seed-sensitive.
   - Meta: Runner.run_result/failure_of expose the failure path, so a
     lost game provably yields a nonzero exit (check.sh also asserts the
     SAGMA_GAMES_EXPECT_FAIL negative run below).

   Env knobs: SAGMA_GAMES_SEED, SAGMA_GAMES_TRIALS (per IND-CPA game;
   the sim game runs half), SAGMA_GAMES_JSON=FILE (write the per-game
   advantage/bound artifact CI uploads). Replay one trial with
   SAGMA_GAMES_SEED="<seed>@<i>" SAGMA_GAMES_TRIALS=1. *)

module Drbg = Sagma_crypto.Drbg
module Sha256 = Sagma_crypto.Sha256
module R = Sagma_prop.Runner
module Dbgen = Sagma_prop.Dbgen
module Game = Sagma_games.Game
module Ind_cpa = Sagma_games.Ind_cpa
module Sim_ind = Sagma_games.Sim_ind
module Json = Sagma_obs.Json
open Sagma

let seed =
  match Sys.getenv_opt "SAGMA_GAMES_SEED" with Some s -> s | None -> "sagma-games-2026"

let trials =
  match Option.bind (Sys.getenv_opt "SAGMA_GAMES_TRIALS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 64

let sim_trials = Stdlib.max 1 (trials / 2)

let failures = ref 0
let outcomes : Game.outcome list ref = ref []

let check ~(expect_broken : bool) (o : Game.outcome) =
  outcomes := o :: !outcomes;
  let ok = o.Game.distinguished = expect_broken in
  Printf.printf "  %s %s\n%!" (if ok then "ok  " else "FAIL") (Game.report o);
  if not ok then begin
    incr failures;
    if expect_broken then
      Printf.printf
        "       mutation NOT caught: the broken scheme passed as secure (seed %S)\n%!"
        o.Game.seed
    else
      Printf.printf
        "       security violation: adversary advantage %.3f exceeds the bound; replay \
         with SAGMA_GAMES_SEED=%S\n%!"
        o.Game.advantage o.Game.seed
  end

(* --- negative smoke: a lost game must exit nonzero --------------------------

   check.sh runs this suite with SAGMA_GAMES_EXPECT_FAIL=1 and asserts
   the process fails: we score a known-leaky scheme against the honest
   expectation, so the failure path (and its propagation through the
   shell gate) is itself tested. *)

let () =
  if Sys.getenv_opt "SAGMA_GAMES_EXPECT_FAIL" <> None then begin
    check ~expect_broken:false (Ind_cpa.game ~trials:32 Ind_cpa.leaky_bgn ~seed);
    exit (if !failures > 0 then 1 else 0)
  end

(* --- the games --------------------------------------------------------------- *)

let () =
  Printf.printf "security games: seed %S, %d trials (%d for sim-ind)\n%!" seed trials
    sim_trials;
  check ~expect_broken:false (Ind_cpa.game ~trials Ind_cpa.bgn ~seed);
  check ~expect_broken:false (Ind_cpa.game ~trials Ind_cpa.paillier ~seed);
  check ~expect_broken:false (Sim_ind.game ~trials:sim_trials ~seed ());
  check ~expect_broken:true (Ind_cpa.game ~trials Ind_cpa.leaky_bgn ~seed);
  check ~expect_broken:true (Ind_cpa.game ~trials Ind_cpa.leaky_paillier ~seed);
  check ~expect_broken:true (Sim_ind.game ~trials:sim_trials ~variant:Sim_ind.Leaky_sse ~seed ())

(* --- JSON artifact ----------------------------------------------------------- *)

let () =
  match Sys.getenv_opt "SAGMA_GAMES_JSON" with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc
      (Json.to_string
         (Obj
            [ ("schema_version", Num 1.); ("seed", Str seed);
              ("games", Arr (List.rev_map Game.json !outcomes)) ]));
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote per-game advantage/bound artifact: %s\n%!" file

(* --- properties: the game's precondition and the simulator ------------------- *)

let config_of (sc : Dbgen.scenario) =
  Config.make ~bucket_size:sc.Dbgen.bucket_size ~max_group_attrs:sc.Dbgen.max_group_attrs
    ~filter_columns:(List.map fst sc.Dbgen.filter_domains)
    ~value_columns:sc.Dbgen.value_columns
    ~group_columns:(List.map fst sc.Dbgen.group_domains) ()

let pair_arb =
  R.arbitrary
    ~print:(fun (sc, t1) ->
      Dbgen.print_scenario sc ^ "twin:\n" ^ Format.asprintf "%a" Sagma_db.Table.pp t1)
    (Dbgen.equal_leakage_pair_gen ~max_rows:6 ~max_queries:2 ())

(* Satellite: the chosen-input precondition of the sim-ind game. The
   generated twin must have (a) identical leakage profiles under every
   generated query and (b) different plaintexts. *)
let t_equal_leakage_pair =
  R.test ~count:12 ~name:"equal-leakage pairs: same profile, different plaintexts" pair_arb
    (fun (sc, t1) ->
      let client =
        Scheme.setup (config_of sc) ~domains:sc.Dbgen.group_domains
          (Drbg.create "games-pair-client")
      in
      let enc0 = Scheme.encrypt_table client sc.Dbgen.table in
      let enc1 = Scheme.encrypt_table client t1 in
      let tokens = List.map (Scheme.token client) sc.Dbgen.queries in
      Leakage.equal (Leakage.profile enc0 tokens) (Leakage.profile enc1 tokens)
      && Sagma_db.Table.rows sc.Dbgen.table <> Sagma_db.Table.rows t1)

let scenario_arb =
  R.arbitrary ~shrink:Dbgen.scenario_shrink ~print:Dbgen.print_scenario
    (Dbgen.scenario_gen ~max_rows:6 ~max_queries:2 ())

let simulated_of (sc : Dbgen.scenario) (sim_seed : string) =
  let client =
    Scheme.setup (config_of sc) ~domains:sc.Dbgen.group_domains
      (Drbg.create "games-det-client")
  in
  let enc = Scheme.encrypt_table client sc.Dbgen.table in
  let tokens = List.map (Scheme.token client) sc.Dbgen.queries in
  let leak = Leakage.profile enc tokens in
  Leakage.simulate client.Scheme.pp.Scheme.bgn_pk leak (Drbg.create sim_seed)

(* Satellite: simulator determinism. Identical DRBG seed ⇒ byte-identical
   simulated transcript; a distinct seed ⇒ a distinct transcript. *)
let t_simulate_deterministic =
  R.test ~count:10 ~name:"Leakage.simulate: same seed = same bytes, new seed = new bytes"
    scenario_arb
    (fun sc ->
      let b1 = Leakage.transcript_bytes (simulated_of sc "games-det-sim") in
      let b2 = Leakage.transcript_bytes (simulated_of sc "games-det-sim") in
      let b3 = Leakage.transcript_bytes (simulated_of sc "games-det-sim-2") in
      b1 = b2 && b1 <> b3)

let prop_failures =
  R.run_result ~seed:"sagma-games-props" ~suite:"test_games"
    [ t_equal_leakage_pair; t_simulate_deterministic ]

(* Pinned regression: one fixed (client, table, queries, sim seed)
   combination whose simulated transcript must never drift. If an
   intentional simulator change lands, re-pin this digest in the same
   commit. *)
let pinned_digest = "1273afac0b217b5380ba6172c47e50f4141eec13b324429ae44a4bdeff6467d6"

let () =
  let schema =
    [ { Sagma_db.Table.name = "v"; ty = Sagma_db.Value.TInt };
      { Sagma_db.Table.name = "g"; ty = Sagma_db.Value.TStr } ]
  in
  let str s = Sagma_db.Value.Str s in
  let vi i = Sagma_db.Value.Int i in
  let table =
    Sagma_db.Table.of_rows schema
      [ [| vi 5; str "a" |]; [| vi 7; str "b" |]; [| vi 11; str "a" |]; [| vi 2; str "c" |] ]
  in
  let config =
    Config.make ~bucket_size:2 ~max_group_attrs:1 ~value_columns:[ "v" ]
      ~group_columns:[ "g" ] ()
  in
  let client =
    Scheme.setup config
      ~domains:[ ("g", [ str "a"; str "b"; str "c"; str "d" ]) ]
      (Drbg.create "games-digest-client")
  in
  let enc = Scheme.encrypt_table client table in
  let tok = Scheme.token client (Sagma_db.Query.make ~group_by:[ "g" ] Sagma_db.Query.Count) in
  let leak = Leakage.profile enc [ tok ] in
  let sim = Leakage.simulate client.Scheme.pp.Scheme.bgn_pk leak (Drbg.create "games-digest-sim") in
  let digest = Sha256.hexdigest (Leakage.transcript_bytes sim) in
  if digest = pinned_digest then Printf.printf "  ok   simulated transcript digest pinned\n%!"
  else begin
    incr failures;
    Printf.printf "  FAIL simulated transcript digest drifted:\n       expected %s\n       got      %s\n%!"
      pinned_digest digest
  end

(* GAMES.json must stay JSON whatever SAGMA_GAMES_SEED holds: a UTF-8
   seed passes through verbatim, not as OCaml's decimal escapes. *)
let () =
  let o = Game.play ~trials:1 ~name:"json" ~seed:"caf\xc3\xa9" (fun _ -> true) in
  let j = Json.to_string (Game.json o) in
  let has needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length j && (String.sub j i n = needle || go (i + 1)) in
    go 0
  in
  if has "\"seed\":\"caf\xc3\xa9\"" && has "\"winning_seeds\":[\"caf\xc3\xa9\"]"
     && not (has "\\195") then
    Printf.printf "  ok   non-ASCII seed written verbatim in GAMES.json\n%!"
  else begin
    incr failures;
    Printf.printf "  FAIL non-ASCII seed mangled in GAMES.json: %s\n%!" j
  end

(* --- meta: the failure path itself ------------------------------------------- *)

let () =
  (* A property that always fails must surface through failure_of (with
     a counterexample report) and count as a failure in run_result —
     run/exit is a thin wrapper over exactly these, so a lost game
     cannot pass CI silently. *)
  let failing =
    R.test ~count:3 ~name:"meta-always-false"
      (R.arbitrary (fun d -> Drbg.int_below d 100))
      (fun _ -> false)
  in
  let passing =
    R.test ~count:3 ~name:"meta-always-true"
      (R.arbitrary (fun d -> Drbg.int_below d 100))
      (fun _ -> true)
  in
  (match R.failure_of ~seed:"games-meta" failing with
   | Some (_, report) when String.length report > 0 ->
     Printf.printf "  ok   failure_of reports a failing property\n%!"
   | _ ->
     incr failures;
     Printf.printf "  FAIL failure_of missed a failing property\n%!");
  (match R.failure_of ~seed:"games-meta" passing with
   | None -> Printf.printf "  ok   failure_of is silent on a passing property\n%!"
   | Some _ ->
     incr failures;
     Printf.printf "  FAIL failure_of flagged a passing property\n%!")

let () =
  let total = !failures + prop_failures in
  if total > 0 then begin
    Printf.printf "test_games: %d FAILED\n%!" total;
    exit 1
  end
  else Printf.printf "test_games: all passed\n%!"
