(** Searchable symmetric encryption: the Π_bas scheme of Cash et al.
    (NDSS'14), adaptively secure in the random-oracle model.

    The encrypted index is a flat dictionary mapping PRF-derived labels
    to masked row ids. A search token reveals one keyword's posting walk;
    leakage is the standard SSE trace (search pattern + access pattern),
    which is exactly what the SAGMA proof (§4.2) hands the simulator.

    SAGMA indexes bucket identifiers and filter keywords through this
    module. *)

module Prf = Sagma_crypto.Prf
module Drbg = Sagma_crypto.Drbg

type key = Prf.key

type index
(** An immutable value: a persistent map from PRF-derived label to
    masked id, one binding per posting, plus each keyword's next posting
    counter (filled only by {!add}, never serialized). *)

val entries : index -> (string * string) list
(** The [(label, masked id)] postings in ascending label order: the
    canonical serialized form. *)

val of_entries : (string * string) list -> index
(** An index over existing postings, with cold counters (a decoded
    index, the simulator's). *)

type token = {
  t_label : Prf.key;  (** K₁: label derivation *)
  t_mask : Prf.key;   (** K₂: id masking *)
}

val label_size : int
val id_size : int

val gen : Drbg.t -> key

val token : key -> string -> token
(** Per-keyword token (deterministic — token equality is the search
    pattern). *)

val token_id : token -> string
(** Opaque tag identifying a token; equal tags = same keyword. *)

val entry : token -> int -> int -> string * string
(** [entry t counter id] is the [(label, masked id)] pair for the
    [counter]-th posting of the token's keyword. Exposed for the
    simulator. *)

val build : key -> (string * int list) list -> index
(** Build the encrypted index from keyword → matching ids: one {!add}
    per posting, so the built keywords' counters start warm. *)

val first_absent : (int -> bool) -> int
(** [first_absent present] is the least [c] with [present c] false, for
    a [present] that holds for exactly the counters [0 … n−1]. It probes
    O(log n) counters by galloping and bisection. *)

val search : index -> token -> int list
(** Walk the token's counters until a label misses; returns matching row
    ids in insertion order. *)

val size : index -> int

val add : index -> token list -> int -> index
(** [add index tokens id] posts row [id] under each token at its
    keyword's next counter: the one way an index grows.
    Works from tokens alone, so a server can apply a remote append. A
    warm token's counter is cached in the index; a cold one costs
    O(log c) label probes ({!first_absent}) and scans no posting. A token
    repeated in [tokens] gets consecutive counters. Non-destructive: the
    result shares structure with [index], which remains valid. *)

(** {1 Simulator} (for the §4.2 security experiment) *)

val simulate_index : Drbg.t -> entries:int -> index
(** Uniformly random postings, [entries] of them. *)

val simulate_token : Drbg.t -> token

val encode_id : int -> string
val decode_id : string -> int
