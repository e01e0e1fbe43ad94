(** Left-or-right IND-CPA as an executable game.

    The challenger generates a key, flips a bit [b], and exposes an
    LR-encryption oracle: the adversary submits [(m0, m1)] pairs and
    receives the encryption of [m_b] as bytes. The built-in adversary
    asks for the challenge [(0, 1)], probes the oracle a second time,
    and guesses from the low bit of the ciphertext's last byte — a
    feature that is a fair coin for any semantically secure scheme but
    reads the plaintext straight off the deliberately leaky variants.

    Honest instances ({!bgn}, {!paillier}) must come out statistically
    indistinguishable from guessing; the leaky mutants ({!leaky_bgn},
    {!leaky_paillier} — real encryption with the plaintext's low bit
    copied over the ciphertext's last bit) must be distinguished, which
    proves the game can actually lose. *)

type scheme
(** A byte-level encryption scheme under test: one-time key generation
    plus an [int -> bytes] encryptor. *)

val bgn : scheme
(** BGN level-1 encryption, ciphertext = serialized curve point. *)

val paillier : scheme
(** Paillier, ciphertext = big-endian bytes of c ∈ Z_{n²}. *)

val leaky_bgn : scheme
(** Mutation check: BGN with [m land 1] copied into the ciphertext's
    last bit. The adversary must win this game. *)

val leaky_paillier : scheme
(** Same mutation for Paillier. *)

val game : ?trials:int -> ?confidence:float -> scheme -> seed:string -> Game.outcome
(** Play the LR game; trial [i] replays from seed ["seed@i"]. The game
    also enforces oracle hygiene per trial: the adversary's challenge
    query is recorded, and its query count stays within the oracle
    budget (a budget violation forfeits the trial). *)
