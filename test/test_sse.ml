(* Tests for the Π_bas searchable symmetric encryption substrate. *)

module Sse = Sagma_sse.Sse
module Drbg = Sagma_crypto.Drbg

let drbg = Drbg.create "sse-tests"
let key = Sse.gen drbg

let corpus =
  [ ("apple", [ 1; 4; 9 ]);
    ("banana", [ 2 ]);
    ("cherry", [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
    ("date", []) ]

let index = Sse.build key corpus

let sorted = List.sort compare

let test_search_matches_plaintext () =
  List.iter
    (fun (w, ids) ->
      Alcotest.(check (list int)) ("search " ^ w) (sorted ids)
        (sorted (Sse.search index (Sse.token key w))))
    corpus

let test_search_missing_keyword () =
  Alcotest.(check (list int)) "absent keyword" [] (Sse.search index (Sse.token key "absent"))

let test_wrong_key_finds_nothing () =
  let other = Sse.gen (Drbg.create "other") in
  Alcotest.(check (list int)) "wrong key" [] (Sse.search index (Sse.token other "apple"))

let test_token_deterministic () =
  let t1 = Sse.token key "apple" and t2 = Sse.token key "apple" in
  Alcotest.(check string) "search pattern" (Sse.token_id t1) (Sse.token_id t2);
  let t3 = Sse.token key "banana" in
  Alcotest.(check bool) "distinct keywords" false (Sse.token_id t1 = Sse.token_id t3)

let test_index_size () =
  (* One dictionary entry per (keyword, id) posting. *)
  Alcotest.(check int) "size" (3 + 1 + 10 + 0) (Sse.size index)

let test_add_posting () =
  let idx = Sse.build key [ ("k", [ 10; 20 ]) ] in
  let idx = Sse.add idx [ Sse.token key "k" ] 30 in
  Alcotest.(check (list int)) "after add" [ 10; 20; 30 ]
    (sorted (Sse.search idx (Sse.token key "k")));
  (* New keyword via add. *)
  let idx = Sse.add idx [ Sse.token key "fresh" ] 77 in
  Alcotest.(check (list int)) "fresh keyword" [ 77 ]
    (Sse.search idx (Sse.token key "fresh"))

let test_large_ids () =
  let big = (1 lsl 40) + 12345 in
  let idx = Sse.build key [ ("w", [ big; 0 ]) ] in
  Alcotest.(check (list int)) "large id" [ 0; big ]
    (sorted (Sse.search idx (Sse.token key "w")))

let test_simulated_index_shape () =
  (* The simulator must reproduce the only thing the adversary sees
     statically: the index size. *)
  let sim = Sse.simulate_index drbg ~entries:(Sse.size index) in
  Alcotest.(check int) "same size" (Sse.size index) (Sse.size sim)

(* --- galloping counter search ---------------------------------------------- *)

(* Posting counts around the powers of two where galloping turns into
   bisection. *)
let boundary_counts = [ 0; 1; 2; 3; 7; 8; 9; 63; 64; 65; 130 ]

let ceil_log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

let test_first_absent_probes () =
  List.iter
    (fun c ->
      let probes = ref 0 in
      let found =
        Sse.first_absent (fun i ->
            incr probes;
            i < c)
      in
      Alcotest.(check int) (Printf.sprintf "first absent of %d" c) c found;
      Alcotest.(check bool)
        (Printf.sprintf "%d probes for %d" !probes c)
        true
        (!probes <= (2 * ceil_log2 (c + 1)) + 2))
    (boundary_counts @ [ 1_000_000 ])

(* A cold [Sse.add] on a keyword with c postings posts at counter c,
   whatever other keywords the index holds. A decoded index has cold
   counters; a built one does not. *)
let test_cold_add_boundaries () =
  let tok = Sse.token key "w" in
  List.iter
    (fun c ->
      let ids = List.init c (fun i -> 3 * i) in
      let cold = Sse.of_entries (Sse.entries (Sse.build key [ ("other", [ 5; 6 ]); ("w", ids) ])) in
      let idx = Sse.add cold [ tok ] 1000 in
      Alcotest.(check bool)
        (Printf.sprintf "posted at counter %d" c)
        true
        (List.mem (Sse.entry tok c 1000) (Sse.entries idx));
      Alcotest.(check (list int))
        (Printf.sprintf "search after %d postings" c)
        (ids @ [ 1000 ])
        (Sse.search idx tok))
    boundary_counts

(* --- dyadic range covers ---------------------------------------------------- *)

module Dyadic = Sagma_sse.Dyadic

let test_dyadic_keywords_for_value () =
  let ks = Dyadic.keywords_for_value ~depth:4 11 in
  Alcotest.(check int) "depth+1 ancestors" 5 (List.length ks);
  List.iter
    (fun i -> Alcotest.(check bool) "each contains v" true (Dyadic.interval_contains i 11))
    ks

let test_dyadic_cover_exact () =
  (* [4, 11] over depth 4 decomposes into [4,7] ∪ [8,11]. *)
  let cover = Dyadic.cover ~depth:4 ~lo:4 ~hi:11 in
  let spans = List.map Dyadic.interval_range cover in
  Alcotest.(check (list (pair int int))) "canonical cover" [ (4, 7); (8, 11) ] spans

let test_dyadic_cover_full_and_single () =
  Alcotest.(check (list (pair int int))) "whole domain" [ (0, 15) ]
    (List.map Dyadic.interval_range (Dyadic.cover ~depth:4 ~lo:0 ~hi:15));
  Alcotest.(check (list (pair int int))) "single point" [ (7, 7) ]
    (List.map Dyadic.interval_range (Dyadic.cover ~depth:4 ~lo:7 ~hi:7))

let test_dyadic_errors () =
  Alcotest.check_raises "empty range" (Invalid_argument "Dyadic.cover: empty range") (fun () ->
      ignore (Dyadic.cover ~depth:4 ~lo:5 ~hi:4));
  Alcotest.check_raises "out of domain" (Invalid_argument "Dyadic.cover: out of domain")
    (fun () -> ignore (Dyadic.cover ~depth:4 ~lo:0 ~hi:16))

(* --- OXT conjunctive SSE ------------------------------------------------------ *)

module Oxt = Sagma_sse.Oxt

let oxt_params = Oxt.make_params ()
let oxt_key = Oxt.gen (Drbg.create "oxt-tests")

(* A small document collection with known conjunctions. *)
let oxt_corpus =
  [ ("red", [ 1; 2; 3; 4; 10 ]);
    ("big", [ 2; 4; 5; 6 ]);
    ("old", [ 4; 6; 7; 10 ]);
    ("rare", [ 10 ]) ]

let oxt_index = Oxt.build oxt_params oxt_key oxt_corpus

let oxt_oracle terms =
  match List.map (fun w -> List.assoc w oxt_corpus) terms with
  | [] -> []
  | first :: rest ->
    List.filter (fun id -> List.for_all (List.mem id) rest) first |> List.sort compare

let test_oxt_single_term () =
  List.iter
    (fun (w, ids) ->
      Alcotest.(check (list int)) ("single " ^ w) (List.sort compare ids)
        (List.sort compare (Oxt.conjunction oxt_params oxt_key oxt_index [ w ])))
    oxt_corpus

let test_oxt_two_term_conjunctions () =
  List.iter
    (fun terms ->
      Alcotest.(check (list int))
        (String.concat "&" terms)
        (oxt_oracle terms)
        (List.sort compare (Oxt.conjunction oxt_params oxt_key oxt_index terms)))
    [ [ "red"; "big" ]; [ "big"; "old" ]; [ "rare"; "red" ]; [ "red"; "old" ] ]

let test_oxt_three_term_conjunction () =
  Alcotest.(check (list int)) "red&big&old" [ 4 ]
    (List.sort compare (Oxt.conjunction oxt_params oxt_key oxt_index [ "red"; "big"; "old" ]));
  Alcotest.(check (list int)) "rare&red&old" [ 10 ]
    (List.sort compare (Oxt.conjunction oxt_params oxt_key oxt_index [ "rare"; "red"; "old" ]))

let test_oxt_empty_intersection () =
  let idx = Oxt.build oxt_params oxt_key [ ("a", [ 1; 2 ]); ("b", [ 3; 4 ]) ] in
  Alcotest.(check (list int)) "disjoint" [] (Oxt.conjunction oxt_params oxt_key idx [ "a"; "b" ])

let test_oxt_sterm_leakage_profile () =
  (* The server learns the s-term's count, not the x-terms': stag_count of
     "rare" is 1 even when conjoined with frequent terms. *)
  let st = Oxt.stag oxt_key "rare" in
  Alcotest.(check int) "s-term count" 1 (Oxt.stag_count oxt_index st);
  (* Structure sizes: one TSet entry and one XSet tag per posting. *)
  let postings = List.fold_left (fun acc (_, ids) -> acc + List.length ids) 0 oxt_corpus in
  Alcotest.(check int) "tset size" postings (Oxt.tset_size oxt_index);
  Alcotest.(check int) "xset size" postings (Oxt.xset_size oxt_index)

let test_oxt_wrong_key_finds_nothing () =
  let other = Oxt.gen (Drbg.create "oxt-other") in
  Alcotest.(check (list int)) "wrong key" []
    (Oxt.conjunction oxt_params other oxt_index [ "red" ])

let test_oxt_stag_count_boundaries () =
  List.iter
    (fun c ->
      let idx = Oxt.build oxt_params oxt_key [ ("other", [ 1 ]); ("w", List.init c Fun.id) ] in
      Alcotest.(check int) (Printf.sprintf "stag_count %d" c) c
        (Oxt.stag_count idx (Oxt.stag oxt_key "w")))
    boundary_counts

let test_oxt_two_round_api () =
  (* Drive the rounds by hand, as a network deployment would. *)
  let st = Oxt.stag oxt_key "big" in
  let count = Oxt.stag_count oxt_index st in
  Alcotest.(check int) "round 1 count" 4 count;
  let xtoks = Oxt.xtokens oxt_params oxt_key ~s_term:"big" ~x_terms:[ "red" ] ~count in
  Alcotest.(check (list int)) "round 2" [ 2; 4 ]
    (List.sort compare (Oxt.search oxt_params oxt_index st xtoks))

let qprop name count gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let props =
  [ qprop "search recovers exactly the postings" 50
      QCheck.(list_of_size (QCheck.Gen.int_range 0 20) (int_range 0 1000))
      (fun ids ->
        let ids = List.sort_uniq compare ids in
        let idx = Sse.build key [ ("kw", ids) ] in
        sorted (Sse.search idx (Sse.token key "kw")) = ids);
    qprop "keywords are independent" 30
      QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 100))
                (list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 100)))
      (fun (a, b) ->
        let a = List.sort_uniq compare a and b = List.sort_uniq compare b in
        let idx = Sse.build key [ ("a", a); ("b", b) ] in
        sorted (Sse.search idx (Sse.token key "a")) = a
        && sorted (Sse.search idx (Sse.token key "b")) = b);
    qprop "dyadic cover is exact and minimal-canonical" 200
      QCheck.(pair (int_range 0 255) (int_range 0 255))
      (fun (a, b) ->
        let lo = min a b and hi = max a b in
        let cover = Dyadic.cover ~depth:8 ~lo ~hi in
        (* Exactness: v in [lo,hi] iff some interval contains it. *)
        let exact = ref true in
        for v = 0 to 255 do
          let covered = List.exists (fun i -> Dyadic.interval_contains i v) cover in
          if covered <> (lo <= v && v <= hi) then exact := false
        done;
        (* Canonical size bound: at most 2·depth intervals. *)
        !exact && List.length cover <= 16);
    qprop "dyadic membership matches search semantics" 100
      QCheck.(pair (int_range 0 63) (pair (int_range 0 63) (int_range 0 63)))
      (fun (v, (a, b)) ->
        let lo = min a b and hi = max a b in
        (* v's ancestor keywords intersect the cover exactly when v is in
           range — the property SSE range filtering relies on. *)
        let ancestors = List.map Dyadic.keyword_tag (Dyadic.keywords_for_value ~depth:6 v) in
        let cover = List.map Dyadic.keyword_tag (Dyadic.cover ~depth:6 ~lo ~hi) in
        List.exists (fun k -> List.mem k cover) ancestors = (lo <= v && v <= hi));
  ]

let () =
  Alcotest.run "sse"
    [ ( "pi-bas",
        [ Alcotest.test_case "search matches plaintext" `Quick test_search_matches_plaintext;
          Alcotest.test_case "missing keyword" `Quick test_search_missing_keyword;
          Alcotest.test_case "wrong key" `Quick test_wrong_key_finds_nothing;
          Alcotest.test_case "token determinism" `Quick test_token_deterministic;
          Alcotest.test_case "index size" `Quick test_index_size;
          Alcotest.test_case "dynamic add" `Quick test_add_posting;
          Alcotest.test_case "large ids" `Quick test_large_ids;
          Alcotest.test_case "simulated index shape" `Quick test_simulated_index_shape ] );
      ( "galloping",
        [ Alcotest.test_case "first_absent probes" `Quick test_first_absent_probes;
          Alcotest.test_case "cold add boundaries" `Quick test_cold_add_boundaries;
          Alcotest.test_case "oxt stag_count boundaries" `Quick test_oxt_stag_count_boundaries ] );
      ( "oxt",
        [ Alcotest.test_case "single term" `Quick test_oxt_single_term;
          Alcotest.test_case "two-term conjunctions" `Quick test_oxt_two_term_conjunctions;
          Alcotest.test_case "three-term conjunction" `Quick test_oxt_three_term_conjunction;
          Alcotest.test_case "empty intersection" `Quick test_oxt_empty_intersection;
          Alcotest.test_case "s-term leakage profile" `Quick test_oxt_sterm_leakage_profile;
          Alcotest.test_case "wrong key" `Quick test_oxt_wrong_key_finds_nothing;
          Alcotest.test_case "two-round api" `Quick test_oxt_two_round_api ] );
      ( "dyadic",
        [ Alcotest.test_case "keywords for value" `Quick test_dyadic_keywords_for_value;
          Alcotest.test_case "cover exact" `Quick test_dyadic_cover_exact;
          Alcotest.test_case "full + single" `Quick test_dyadic_cover_full_and_single;
          Alcotest.test_case "errors" `Quick test_dyadic_errors ] );
      ("properties", props);
    ]
