(** The adversary-game trial driver.

    A game is a function of a per-trial DRBG that plays one full
    challenger-vs-adversary experiment — flip the challenge bit, run the
    adversary against its oracles, return whether the adversary guessed
    the bit. {!play} runs [trials] independent experiments and estimates
    the adversary's distinguishing advantage with a Wilson score
    confidence bound ({!Sagma_prop.Runner.wilson_interval}).

    Seeding follows the property runner's convention: trial [i] draws
    from a DRBG seeded with [name ^ "|" ^ case_seed seed i], so any
    single trial replays verbatim as trial 0 of a run seeded with the
    printed ["seed@i"] string.

    Interpretation: the scheme holds up iff the blind-guess rate 1/2
    lies inside the Wilson interval of the observed win rate
    ([distinguished = false]); a deliberately broken scheme must push
    the interval past 1/2 ([distinguished = true]) — that check is what
    gives the honest games teeth. *)

type outcome = {
  game : string;
  trials : int;
  wins : int;
  win_rate : float;
  advantage : float;   (** |win_rate - 1/2| *)
  lo : float;          (** Wilson interval at [confidence] *)
  hi : float;
  bound : float;       (** interval half-width — the statistical noise floor *)
  confidence : float;
  distinguished : bool;  (** the interval excludes 1/2 *)
  seed : string;
  winning_seeds : string list;
      (** replayable per-trial seeds of the first few adversary wins *)
}

val play :
  ?trials:int ->
  ?confidence:float ->
  name:string ->
  seed:string ->
  (Sagma_crypto.Drbg.t -> bool) ->
  outcome
(** Run the game. [trials] defaults to 64, [confidence] to 0.999
    (conservative: honest games must not flake in CI). *)

val report : outcome -> string
(** One human-readable block: win rate, advantage vs. bound, verdict,
    and a replayable seed for the first adversary win. *)

val json : outcome -> Sagma_obs.Json.t
(** One JSON object per game (advantage, bound, interval, seeds) — the
    shape the CI games-smoke artifact aggregates. *)
