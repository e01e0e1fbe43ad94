(** Property runner: deterministic seeding, greedy shrinking and
    replayable counterexample reports.

    Case [i] of a test draws from a DRBG seeded with
    [name ^ "|" ^ case_seed], where [case_seed] is the run seed for
    [i = 0] and [seed ^ "@" ^ i] otherwise. A failure report prints that
    case seed: re-running the suite with it (via [~seed] or
    [SAGMA_PROP_SEED]) replays the failing draw verbatim as case 0.

    Environment overrides, read by {!run}:
    - [SAGMA_PROP_SEED] — replaces the suite seed;
    - [SAGMA_PROP_COUNT] — absolute case count for every test (use 1
      when replaying a failure seed);
    - [SAGMA_PROP_SCALE] — percentage multiplier on each test's own
      count (e.g. 500 for a 5× deeper nightly run). *)

exception Discard
(** Raise inside a property to reject the drawn input (precondition not
    met); the case counts as neither pass nor failure. *)

type 'a arbitrary = {
  gen : 'a Gen.t;
  shrink : 'a Shrink.t;
  print : 'a -> string;
}

val arbitrary : ?shrink:'a Shrink.t -> ?print:('a -> string) -> 'a Gen.t -> 'a arbitrary

type test

val test : ?count:int -> name:string -> 'a arbitrary -> ('a -> bool) -> test
(** A named property over generated inputs; [count] (default 100) cases
    are drawn per run. The property fails by returning [false] or
    raising (other than {!Discard}). *)

val case_seed : string -> int -> string
(** [case_seed seed i] is the seed of case [i]: [seed] itself for
    [i = 0], [seed ^ "@" ^ i] otherwise — the string failure reports
    print, and the convention the security games ({!Sagma_games.Game})
    reuse for per-trial replay. *)

val run : ?seed:string -> suite:string -> test list -> unit
(** Run every test, print one line per property, and [exit 1] when any
    failed — wired as the main of each [test_prop_*] executable under
    [dune runtest]. *)

val run_result : ?seed:string -> suite:string -> test list -> int
(** Like {!run} but returns the number of failed properties instead of
    exiting, so harnesses that mix properties with other checks (the
    games runner) can combine failure counts into one exit status —
    and so the exit path itself is testable: [run] is exactly
    [exit 1 iff run_result > 0]. *)

val failure_of : ?seed:string -> ?count:int -> test -> (string * string) option
(** Run one test silently and return [Some (case_seed, report)] for its
    first failure (after shrinking), [None] when every case passes.
    [count] defaults to the test's own count, ignoring the environment
    overrides. Meta-testing hook: lets a suite assert that a
    deliberately broken property fails, shrinks, and that its printed
    seed replays to the same minimal counterexample. *)

(** {1 Binomial statistics}

    Shared by the security games: a distinguisher winning [wins] of
    [trials] fair-coin trials is statistically indistinguishable from
    blind guessing as long as 1/2 lies inside the Wilson score interval
    of its observed win rate. *)

val z_for_confidence : float -> float
(** Two-sided normal quantile for a confidence level (supported points:
    0.90, 0.95, 0.99, 0.999; others round to the nearest). *)

val wilson_interval : wins:int -> trials:int -> z:float -> float * float
(** Wilson score interval [(lo, hi)] for the underlying win probability,
    clamped to [\[0, 1\]]. Well-behaved at observed rates 0 and 1, where
    broken schemes land. *)

val advantage : wins:int -> trials:int -> float
(** Observed distinguishing advantage [|wins/trials - 1/2|]. *)
