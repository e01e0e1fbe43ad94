(** The leakage function L of §4.2 and the simulator of Theorem 1,
    executable.

    L(T, (V₁,Q₁), …) = ((V₁,Q₁), …, τ): the queried attribute
    {e identifiers} plus the SSE trace (search pattern and bucket-level
    access pattern). The simulator consumes exactly this and emits an
    encrypted database and tokens; tests check the simulated transcript
    is structurally identical to the real one and replays the leaked
    access patterns — the operational content of adaptive L-security. *)

module Drbg = Sagma_crypto.Drbg
module Sse = Sagma_sse.Sse
module Bgn = Sagma_bgn.Bgn

type sse_observation = {
  token_tag : string;  (** search pattern: equal tags = same keyword *)
  matches : int list;  (** access pattern *)
}

type query_leakage = {
  value_column : int option;
  group_columns : int array;
  observations : sse_observation list;
}

type t = {
  num_rows : int;
  num_monomials : int;
  num_value_columns : int;
  num_channels : int;
  index_size : int;
  queries : query_leakage list;
}

val profile : Scheme.enc_table -> Scheme.token list -> t
(** Materialize L for a query sequence. *)

val equal : t -> t -> bool
(** Structural equality after renaming every distinct token tag to its
    first-occurrence index (tags are PRF outputs, so only the repetition
    structure carries information) — the "equal leakage"
    predicate of the §4.2 games: two (table, query list) pairs with
    [equal] profiles must be indistinguishable to the server
    ({!Sagma_games.Sim_ind} checks exactly this). *)

(** {1 Leakage audit}

    {!Scheme.aggregate} records every index access it performs as a
    {!Sagma_obs.Audit} probe; {!audit_check} derives the matching
    prediction from the declared leakage, so an audited trace can be
    replayed against what L licenses. *)

val audit_check :
  Scheme.enc_table -> Scheme.token -> Sagma_obs.Audit.trace -> Sagma_obs.Audit.verdict
(** [Audit.check] against the exact probe set (kind, tag, posting list)
    an honest execution of Algorithm 5 may produce for this token, plus
    a tight bound on the rows entering the pairing loop: fails iff the
    server observed anything the declared leakage does not predict. *)

type simulated = {
  sim_rows : Scheme.enc_row array;
  sim_index : Sse.index;
  sim_tokens : (string * Sse.token) list;
}

val simulate : Bgn.public_key -> t -> Drbg.t -> simulated
(** Build a fake encrypted database + tokens from the leakage alone:
    encryptions of 0 (semantic security), a programmed SSE dictionary
    reproducing the leaked access patterns, random padding to the leaked
    index size. *)

val transcript_bytes : simulated -> string
(** Deterministic serialization of a simulated transcript (rows, sorted
    dictionary entries, sorted tokens): same DRBG seed ⇒ byte-identical
    output, independent of hash-table iteration order. Tested — and
    pinned to a regression digest — in [test_games]. *)
