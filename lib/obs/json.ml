(* The one JSON writer: every emitter in the repository (metrics
   snapshots, span trees, Chrome traces, log lines, stats/health reports,
   the games artifact) builds a [t] and prints it here, so there is one
   escaping rule and one number rule. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no inf/nan: a snapshot that arrived over the wire can hold
   an empty histogram (NaN mean, infinite extremes), so those print as
   [null]. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let write_list b opening closing item l =
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    l;
  Buffer.add_char b closing

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (number f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr items -> write_list b '[' ']' (write b) items
  | Obj fields ->
    write_list b '{' '}'
      (fun (k, v) ->
        write b (Str k);
        Buffer.add_char b ':';
        write b v)
      fields

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b
