(** Instrumented oracles for the security games.

    A game never hands the adversary a raw function: it wraps the
    challenger's interface in an [('q, 'r) t] that counts calls, records
    the full query/response transcript in call order, and enforces an
    optional query budget — the OCaml port of haskell-uc's
    [runWithOracle]/[oracleMapM] shape, where the game inspects after
    the fact how (and how often) its oracle was used. *)

exception Budget_exceeded of string * int
(** [(oracle name, budget)] — raised by {!call} once the budget is
    exhausted; an adversary exceeding its allotted queries forfeits. *)

type ('q, 'r) t

val make : ?name:string -> ?budget:int -> ('q -> 'r) -> ('q, 'r) t
(** Wrap a challenger function. [budget] bounds the number of calls
    (unbounded when omitted). *)

val call : ('q, 'r) t -> 'q -> 'r
(** Answer one query, recording it. @raise Budget_exceeded *)

val count : ('q, 'r) t -> int
(** Queries answered so far. *)

val queried : ('q, 'r) t -> ('q -> bool) -> bool
(** Was some recorded query satisfying the predicate made? The freshness
    check of forgery-style games (gameEuCma's "never queried"). *)
