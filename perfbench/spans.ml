(* Spans the benchmark records around its own calls into each layer.
   Each connection owns one recorder, so recording takes no lock; spans
   stay in memory and are written once the run ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : string;  (** request id shared by every span of one operation *)
  tid : int;
  t0 : float;
  t1 : float;
}

type recorder = {
  tid : int;
  mutable on : bool;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
  mutable req : string;
}

let recorder tid = { tid; on = false; spans = []; stack = []; next = 0; req = "" }

let with_span r name f =
  if not r.on then f ()
  else begin
    r.next <- r.next + 1;
    let id = (r.tid * 1_000_000) + r.next in
    let parent = match r.stack with p :: _ -> p | [] -> 0 in
    r.stack <- id :: r.stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      r.stack <- List.tl r.stack;
      r.spans <-
        { id; parent; name; req = r.req; tid = r.tid; t0; t1 = Unix.gettimeofday () } :: r.spans
    in
    Fun.protect ~finally:finish f
  end

(* Chrome trace-event format (chrome://tracing, Perfetto). *)
let chrome_trace (spans : span list) : Json.t =
  let base = List.fold_left (fun a s -> Float.min a s.t0) Float.infinity spans in
  Json.Obj
    [ ( "traceEvents",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [ ("name", Json.Str s.name); ("cat", Json.Str "bench"); ("ph", Json.Str "X");
                   ("ts", Json.Num ((s.t0 -. base) *. 1e6));
                   ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6)); ("pid", Json.Num 1.);
                   ("tid", Json.Num (float_of_int s.tid));
                   ( "args",
                     Json.Obj
                       [ ("req", Json.Str s.req); ("id", Json.Num (float_of_int s.id));
                         ("parent", Json.Num (float_of_int s.parent)) ] ) ])
             spans) );
      ("displayTimeUnit", Json.Str "ms") ]

(* Per span name: count, total and self time (duration minus the part
   its children cover; children of one span never overlap, since each
   connection runs one call at a time), and the median duration. *)
let summary (spans : span list) : Json.t =
  let child_ms = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_ms s.parent
          ((s.t1 -. s.t0) +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. Option.value (Hashtbl.find_opt child_ms s.id) ~default:0. in
      let durs, selfs = Option.value (Hashtbl.find_opt by_name s.name) ~default:([], []) in
      Hashtbl.replace by_name s.name (dur :: durs, self :: selfs))
    spans;
  let sum = List.fold_left ( +. ) 0. in
  Json.Obj
    (Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
    |> List.sort compare
    |> List.map (fun (name, (durs, selfs)) ->
           ( name,
             Json.Obj
               [ ("count", Json.Num (float_of_int (List.length durs)));
                 ("total_ms", Json.Num (1000. *. sum durs));
                 ("self_ms", Json.Num (1000. *. sum selfs));
                 ("p50_ms", Json.Num (1000. *. Stats.median durs)) ] )))
