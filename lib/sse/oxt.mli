(** OXT — Oblivious Cross-Tags (Cash et al., CRYPTO'13): searchable
    symmetric encryption for conjunctive queries w₁ ∧ … ∧ wₙ; the SAGMA
    paper's reference [6] for determining joint bucket membership without
    leaking individual memberships (§3.2, §3.4).

    Two-round search: the client sends the s-term's stag (choose the
    least-frequent term), learns its match count, then sends per-counter
    x-tokens for the remaining terms; the server filters by cross-tag
    membership. Leakage: the s-term's result count and which of its
    entries satisfy the conjunction — never the other keywords' posting
    lists. *)

module Z = Sagma_bigint.Bigint
module Curve = Sagma_pairing.Curve
module Pairing = Sagma_pairing.Pairing
module Prf = Sagma_crypto.Prf
module Drbg = Sagma_crypto.Drbg

type params = {
  group : Pairing.group;  (** prime-order curve subgroup *)
  base : Curve.point;
}

val make_params : unit -> params

type key = { k_t : Prf.key; k_x : Prf.key; k_i : Prf.key; k_z : Prf.key }
(** Exposed for serialization; treat as an opaque secret. *)

val gen : Drbg.t -> key

type tset_entry = { e : string; y : Z.t }

type index
(** An immutable value: a persistent TSet map (label → entry) and XSet
    (serialized cross tags). *)

val entries : index -> (string * tset_entry) list * string list
(** TSet bindings and XSet tags, each in ascending order: the canonical
    serialized form. *)

val of_entries : (string * tset_entry) list * string list -> index

val build : params -> key -> (string * int list) list -> index
(** Encrypt a keyword → ids association into TSet + XSet. *)

val add : params -> key -> index -> string -> int -> index
(** [add params k index w id] appends [id] to [w]'s postings at its next
    counter, found by {!stag_count}. Non-destructive: the result shares
    structure with [index], which remains valid. *)

type stag = { s_keyword_key : Prf.key; s_mask_key : Prf.key }
(** Exposed for serialization. *)

val stag : key -> string -> stag
(** Search token for the s-term. *)

val stag_count : index -> stag -> int
(** Round 1 (server): the s-term's entry count, in O(log count) label
    probes ({!Sse.first_absent}). *)

val xtokens :
  params -> key -> s_term:string -> x_terms:string list -> count:int ->
  Curve.point array array
(** Round 2 (client): x-tokens, one row per s-term counter. *)

val search : params -> index -> stag -> Curve.point array array -> int list
(** Round 2 (server): ids of s-term entries whose cross-tags match every
    x-term. *)

val conjunction : params -> key -> index -> string list -> int list
(** One-shot both-round helper; pass the least-frequent keyword first. *)

val tset_size : index -> int
val xset_size : index -> int
