(** Leakage-abuse attacks, executable (Naveed et al., CCS'15 — the
    paper's motivating threat, §1/§2).

    Frequency analysis recovers deterministic-encryption plaintexts from
    histogram leakage; against SAGMA only bucket frequencies leak, and
    dummy rows remove even those. Tests and `bench ablation:attack`
    report the measured recovery rates. *)

module Value = Sagma_db.Value

type auxiliary = (Value.t * int) list
(** The attacker's auxiliary plaintext distribution. *)

val attack_cryptdb :
  leaked:(string * int) list -> aux:auxiliary -> truth:(string * Value.t) list -> float
(** Run the frequency attack against a CryptDB-style deterministic
    column's leaked histogram. *)

val attack_sagma_buckets : Mapping.t -> histogram:(Value.t * int) list -> float
(** Best-case attacker against SAGMA's bucket leakage: identify buckets
    by frequency (when unique), then answer the most frequent member. *)

val baseline_guess : auxiliary -> histogram:(Value.t * int) list -> float
(** Blind guessing (auxiliary mode), for calibration. *)
