(* Typed cell values for the relational substrate. *)

type ty = TInt | TStr

type t =
  | Int of int
  | Str of string

let ty_of = function Int _ -> TInt | Str _ -> TStr

let compare (a : t) (b : t) : int =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

let equal a b = compare a b = 0

let to_string = function
  | Int x -> string_of_int x
  | Str s -> s

(* Canonical keyword encoding used for PRF inputs and SSE keywords: the
   type tag prevents Int 1 / Str "1" collisions. *)
let encode = function
  | Int x -> "i:" ^ string_of_int x
  | Str s -> "s:" ^ s

let parse (ty : ty) (s : string) : t =
  match ty with
  | TInt -> Int (int_of_string (String.trim s))
  | TStr -> Str s

let as_int = function
  | Int x -> x
  | Str s -> invalid_arg (Printf.sprintf "Value.as_int: %S is not an Int" s)
