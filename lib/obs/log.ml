(* Structured logging: leveled JSON-lines events.

   Disabled until a sink is attached: [event] reduces to one load and a
   comparison, so instrumented request paths cost nothing in the default
   configuration. Each emitted line is a single JSON object —
   {"ts":...,"level":"info","event":"request","req":17,...} — so files
   are greppable and jq-able without a parser for a bespoke format.

   A mutex serializes emission (the transport can log from the accept
   loop while a handler logs mid-request in tests); lines are printed
   by Json.to_string. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type field = string * Json.t

let str k v : field = (k, Str v)
let int k v : field = (k, Json.int v)
let float k v : field = (k, Num v)
let bool k v : field = (k, Bool v)

(* --- sink ----------------------------------------------------------------- *)

let min_level = ref Info
let set_level l = min_level := l

type sink = { oc : out_channel; close_on_detach : bool }

let sink : sink option ref = ref None
let lock = Mutex.create ()

let detach () =
  Mutex.lock lock;
  (match !sink with
   | Some s ->
     (try flush s.oc with Sys_error _ -> ());
     if s.close_on_detach then (try close_out s.oc with Sys_error _ -> ())
   | None -> ());
  sink := None;
  Mutex.unlock lock

let to_file path =
  detach ();
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Mutex.lock lock;
  sink := Some { oc; close_on_detach = true };
  Mutex.unlock lock

let enabled (l : level) : bool = !sink <> None && severity l >= severity !min_level

(* --- emission --------------------------------------------------------------- *)

(* Request ids tie log lines (and audit traces) of one request together;
   atomic so multi-domain callers never collide. *)
let request_ids = Atomic.make 0
let next_request_id () = Atomic.fetch_and_add request_ids 1 + 1

(* Emit one line; a no-op when below the threshold or sink-less. *)
let event ?(fields : field list = []) (l : level) (name : string) : unit =
  if enabled l then begin
    let line =
      Json.to_string
        (Obj
           (("ts", Num (Unix.gettimeofday ())) :: ("level", Str (level_to_string l))
           :: ("event", Str name) :: fields))
    in
    Mutex.lock lock;
    (match !sink with
     | Some s ->
       (try
          output_string s.oc line;
          output_char s.oc '\n';
          flush s.oc
        with Sys_error _ -> ())
     | None -> ());
    Mutex.unlock lock
  end

let debug ?fields name = event ?fields Debug name
let info ?fields name = event ?fields Info name
let warn ?fields name = event ?fields Warn name
let error ?fields name = event ?fields Error name
