(** Minimal CSV support (RFC 4180 subset: quoted fields, embedded commas
    and quotes; no embedded newlines). *)

val parse : schema:Table.schema -> string -> Table.t
(** Parse a CSV with a header line matching the schema's column order.
    @raise Invalid_argument on header or row mismatches. *)

val render : Table.t -> string
