(* Instrumented oracle wrapper: the challenger side of every game routes
   adversary access through one of these, so the game can afterwards
   check how the oracle was used (query count, budget, freshness). *)

exception Budget_exceeded of string * int

type ('q, 'r) t = {
  name : string;
  budget : int option;
  answer : 'q -> 'r;
  mutable calls : int;
  mutable log : ('q * 'r) list;  (* newest first *)
}

let make ?(name = "oracle") ?budget (answer : 'q -> 'r) : ('q, 'r) t =
  { name; budget; answer; calls = 0; log = [] }

let call (o : ('q, 'r) t) (q : 'q) : 'r =
  (match o.budget with
   | Some b when o.calls >= b -> raise (Budget_exceeded (o.name, b))
   | _ -> ());
  let r = o.answer q in
  o.calls <- o.calls + 1;
  o.log <- (q, r) :: o.log;
  r

let count (o : ('q, 'r) t) : int = o.calls

let queried (o : ('q, 'r) t) (p : 'q -> bool) : bool =
  List.exists (fun (q, _) -> p q) o.log
