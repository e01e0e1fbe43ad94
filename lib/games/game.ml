(* Trial driver: repeat one challenger-vs-adversary experiment under
   per-trial DRBG seeds (the property runner's name|seed@i convention),
   then decide whether the observed win rate is statistically
   distinguishable from a fair coin. *)

module Drbg = Sagma_crypto.Drbg
module R = Sagma_prop.Runner
module Json = Sagma_obs.Json

type outcome = {
  game : string;
  trials : int;
  wins : int;
  win_rate : float;
  advantage : float;
  lo : float;
  hi : float;
  bound : float;
  confidence : float;
  distinguished : bool;
  seed : string;
  winning_seeds : string list;
}

let max_recorded_wins = 5

let play ?(trials = 64) ?(confidence = 0.999) ~(name : string) ~(seed : string)
    (trial : Drbg.t -> bool) : outcome =
  let wins = ref 0 in
  let winning = ref [] in
  for i = 0 to trials - 1 do
    let cs = R.case_seed seed i in
    let drbg = Drbg.create (name ^ "|" ^ cs) in
    if trial drbg then begin
      incr wins;
      if List.length !winning < max_recorded_wins then winning := cs :: !winning
    end
  done;
  let wins = !wins in
  let z = R.z_for_confidence confidence in
  let lo, hi = R.wilson_interval ~wins ~trials ~z in
  { game = name;
    trials;
    wins;
    win_rate = float_of_int wins /. float_of_int (max 1 trials);
    advantage = R.advantage ~wins ~trials;
    lo;
    hi;
    bound = (hi -. lo) /. 2.0;
    confidence;
    distinguished = lo > 0.5 || hi < 0.5;
    seed;
    winning_seeds = List.rev !winning }

let report (o : outcome) : string =
  let verdict =
    if o.distinguished then "DISTINGUISHED (advantage beyond the bound)"
    else "indistinguishable from guessing"
  in
  let replay =
    match o.winning_seeds with
    | [] -> ""
    | cs :: _ ->
      Printf.sprintf
        "\n    replay first win: SAGMA_GAMES_SEED=%S SAGMA_GAMES_TRIALS=1 (trial 0)" cs
  in
  Printf.sprintf
    "%s: %d/%d wins (rate %.3f, advantage %.3f, Wilson %.1f%% interval [%.3f, %.3f]) — %s%s"
    o.game o.wins o.trials o.win_rate o.advantage (o.confidence *. 100.0) o.lo o.hi
    verdict replay

let json (o : outcome) : Json.t =
  Obj
    [ ("game", Str o.game); ("trials", Json.int o.trials); ("wins", Json.int o.wins);
      ("win_rate", Num o.win_rate); ("advantage", Num o.advantage); ("bound", Num o.bound);
      ("lo", Num o.lo); ("hi", Num o.hi); ("confidence", Num o.confidence);
      ("distinguished", Bool o.distinguished); ("seed", Str o.seed);
      ("winning_seeds", Arr (List.map (fun s -> Json.Str s) o.winning_seeds)) ]
