(** The one JSON writer. Every JSON emitter builds a {!t} and prints it
    with {!to_string}; nothing in the library reads JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** printed in list order *)

val int : int -> t
(** [Num] of an integer. *)

val to_string : t -> string
(** Compact JSON text. Strings escape the double quote, the backslash
    and every control byte (as [\n], [\r], [\t] or [\u00XX]); every
    other byte, UTF-8 included, passes through verbatim. Integral
    numbers below 1e15 print without a fraction, other finite numbers
    with [%.17g] (so they round-trip), and NaN and ±infinity print as
    [null]. *)
