(** Structured logging: leveled JSON-lines events.

    Events are JSON objects, one per line:

    {v
    {"ts":1722871234.561,"level":"info","event":"request.done","req":17,"kind":"Aggregate","ms":41.2}
    v}

    Logging is off until a sink is attached ({!to_file});
    with no sink, {!event} is a load and a comparison, so request paths
    can stay instrumented unconditionally. Emission takes a mutex, so
    the transport accept loop and handlers may log concurrently. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> level option

(** {1 Configuration} *)

val set_level : level -> unit
(** Threshold, [Info] by default: events below it are dropped. *)

val to_file : string -> unit
(** Attach a JSON-lines sink appending to [path] (created 0o644),
    replacing any previous sink. *)

val detach : unit -> unit
(** Flush and drop the sink (closing it if {!to_file} opened it);
    logging is disabled again. *)

val enabled : level -> bool
(** Would an event at this level be emitted right now? Use to guard
    expensive field construction. *)

(** {1 Fields} *)

type field = string * Json.t
(** A key and its value; a value may nest (a span tree, say). *)

val str : string -> string -> field
val int : string -> int -> field
val float : string -> float -> field
val bool : string -> bool -> field

(** {1 Emission} *)

val next_request_id : unit -> int
(** Fresh id tying together the log lines (and the {!Audit} trace) of
    one request; atomic, so safe from any domain. *)

val debug : ?fields:field list -> string -> unit
val info : ?fields:field list -> string -> unit
val warn : ?fields:field list -> string -> unit
val error : ?fields:field list -> string -> unit
