(** Bucket-partitioning analysis and the §5 protection mechanisms:
    exposure measurement, optimal partitioning, dummy-row planning and
    attribute value splits. *)

module Value = Sagma_db.Value
module Table = Sagma_db.Table

val histogram : Table.t -> string -> (Value.t * int) list
(** Frequency of each value of a column, sorted by value. *)

val bucket_frequencies : Mapping.t -> (Value.t * int) list -> int array
(** Total observed frequency per bucket — what the access pattern
    leaks. *)

val exposure : Mapping.t -> (Value.t * int) list -> float
(** Exposure coefficient (after Ceselli et al., specialized to the §5
    bucket-frequency attack): the frequency-weighted probability of
    correctly identifying a value's slot given the plaintext histogram
    and the leaked bucket frequencies. 1.0 = unique reconstruction,
    1/|D| = blind guessing. *)

val optimal_mapping : ?max_domain:int -> (Value.t * int) list -> bucket_size:int -> Mapping.t
(** Exhaustive minimal-exposure partition for domains up to [max_domain]
    (default 8); falls back to the LPT frequency-balancing heuristic
    beyond that. *)

(** {1 Dummy rows (§5)} *)

val dummy_plan_for_column : Mapping.t -> (Value.t * int) list -> (Value.t * int) list
(** Per bucket, a (member value, deficit) pair padding every bucket to
    the maximum bucket frequency — flattening the access pattern. *)

val dummy_rows : Mapping.t array -> (Value.t * int) list array -> Value.t array list
(** Zip per-column plans into full dummy rows (one group value per
    column) suitable for [Scheme.encrypt_table ~dummy_groups]. *)

(** {1 Attribute value splits (§5)} *)

val split_column : Table.t -> column:string -> value:Value.t -> parts:int -> Table.t
(** Replace a high-frequency value by round-robin sub-values g.1 … g.k.
    Only string values are splittable. *)

val split_domain : Value.t list -> value:Value.t -> parts:int -> Value.t list

val merge_split_results :
  Scheme.result_row list -> position:int -> value:Value.t -> parts:int -> Scheme.result_row list
(** Client-side post-processing: merge the sub-groups back, summing sums
    and counts. *)
