(** In-memory relational tables: a schema plus row-major cells. *)

type column = { name : string; ty : Value.ty }
type schema = column list

type t

val make : schema -> t
(** Empty table. @raise Invalid_argument on duplicate column names. *)

val of_rows : schema -> Value.t array list -> t
(** Bulk constructor. @raise Invalid_argument on arity mismatch. *)

val insert : t -> Value.t array -> t
(** Append one row, checking arity and types. *)

val schema : t -> schema
val row_count : t -> int
val rows : t -> Value.t array list
val column_names : t -> string list

val column_index : t -> string -> int
(** @raise Invalid_argument for unknown columns. *)

val column_ty : t -> string -> Value.ty

val distinct : t -> string -> Value.t list
(** Distinct values of a column, sorted. *)

val pp : Format.formatter -> t -> unit
