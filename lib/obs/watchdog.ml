(* SLO watchdog: a small declarative rule engine over metrics snapshots.

   A rule names a signal source (a counter ratio or rate over the poll
   interval, a gauge level, a histogram p99, or the fleet's down-shard
   count), a comparison and a threshold. {!poll} evaluates every rule
   against the latest snapshot, tracks firing state per rule, and emits
   a structured "alert" log event on each firing→resolved transition —
   so an operator tailing the JSON log, or a CI gate running
   `sagma_cli health`, sees SLO breaches as first-class events.

   Everything here reads counter/timing data the §4.2 leakage function
   already licenses; the watchdog widens no leakage envelope. *)

type source =
  | Ratio of string * string  (* delta(a) / delta(b) over the poll interval *)
  | Rate of string            (* delta(counter) per second *)
  | Gauge of string           (* current level *)
  | P99 of string             (* histogram p99 estimate, ms *)
  | Shards_down               (* count of unreachable shards (coordinator) *)

type cmp = Gt | Lt

type rule = { r_name : string; r_source : source; r_cmp : cmp; r_threshold : float }

type alert = {
  a_rule : string;
  a_since : float;      (* epoch seconds the rule started firing *)
  a_value : float;      (* observation that last kept it firing *)
  a_threshold : float;
  a_message : string;
}

let source_to_string = function
  | Ratio (a, b) -> Printf.sprintf "ratio:%s/%s" a b
  | Rate c -> Printf.sprintf "rate:%s" c
  | Gauge g -> Printf.sprintf "gauge:%s" g
  | P99 h -> Printf.sprintf "p99:%s" h
  | Shards_down -> "shards_down"

let cmp_to_string = function Gt -> ">" | Lt -> "<"

let rule_to_string (r : rule) : string =
  Printf.sprintf "%s %s %s %g" r.r_name (source_to_string r.r_source) (cmp_to_string r.r_cmp)
    r.r_threshold

(* The default SLO set: error rate over the poll window, tail latency,
   pool backlog, and fleet integrity. Thresholds are deliberately loose
   — operators tighten them with --alert-rules. *)
let default_rules : rule list =
  [ { r_name = "error-rate"; r_source = Ratio ("proto.requests_failed", "proto.requests");
      r_cmp = Gt; r_threshold = 0.5 };
    { r_name = "p99-latency"; r_source = P99 "proto.request_ms"; r_cmp = Gt;
      r_threshold = 30_000. };
    { r_name = "queue-depth"; r_source = Gauge "pool.queue_depth"; r_cmp = Gt;
      r_threshold = 128. };
    { r_name = "shard-down"; r_source = Shards_down; r_cmp = Gt; r_threshold = 0. } ]

(* Rule files: one rule per line, `name source cmp threshold`
   whitespace-separated; blank lines and `#` comments skipped.

     slow-p99     p99:proto.request_ms        > 500
     err-burst    ratio:proto.requests_failed/proto.requests > 0.05
     backlog      gauge:pool.queue_depth      > 32
     ingest-idle  rate:proto.requests         < 1
     fleet        shards_down                 > 0
*)
let parse_source (s : string) : (source, string) result =
  let kind, arg =
    match String.index_opt s ':' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match kind with
  | "shards_down" -> Ok Shards_down
  | "rate" when arg <> "" -> Ok (Rate arg)
  | "gauge" when arg <> "" -> Ok (Gauge arg)
  | "p99" when arg <> "" -> Ok (P99 arg)
  | "ratio" ->
    (match String.index_opt arg '/' with
     | Some i when i > 0 && i < String.length arg - 1 ->
       Ok (Ratio (String.sub arg 0 i, String.sub arg (i + 1) (String.length arg - i - 1)))
     | _ -> Error (Printf.sprintf "ratio source needs num/den, got %S" arg))
  | _ -> Error (Printf.sprintf "unknown source %S (want ratio:a/b, rate:c, gauge:g, p99:h, shards_down)" s)

let parse_rules (text : string) : (rule list, string) result =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (n + 1) acc rest
      else begin
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ name; src; cmp; thr ] ->
          let cmp_r =
            match cmp with
            | ">" -> Ok Gt
            | "<" -> Ok Lt
            | c -> Error (Printf.sprintf "unknown comparison %S (want > or <)" c)
          in
          (match parse_source src, cmp_r, float_of_string_opt thr with
           | Ok r_source, Ok r_cmp, Some r_threshold ->
             go (n + 1) ({ r_name = name; r_source; r_cmp; r_threshold } :: acc) rest
           | Error e, _, _ | _, Error e, _ -> Error (Printf.sprintf "line %d: %s" n e)
           | _, _, None -> Error (Printf.sprintf "line %d: bad threshold %S" n thr))
        | _ ->
          Error
            (Printf.sprintf "line %d: want `name source cmp threshold`, got %S" n line)
      end
  in
  go 1 [] lines

type t = {
  rules : rule list;
  lock : Mutex.t;
  mutable prev : (float * Metrics.snapshot) option;  (* last poll: time + snapshot *)
  firing : (string, alert) Hashtbl.t;
}

let create ?(rules = default_rules) () : t =
  { rules; lock = Mutex.create (); prev = None; firing = Hashtbl.create 8 }

let counter_value (s : Metrics.snapshot) (name : string) : int =
  match List.assoc_opt name s.Metrics.counters with Some v -> v | None -> 0

(* [None] means "not evaluable this poll" (rates need a previous
   snapshot; a ratio with no denominator traffic stays silent), which
   never changes the rule's firing state. *)
let evaluate (r : rule) ~(prev : (float * Metrics.snapshot) option) ~(now : float)
    ~(snapshot : Metrics.snapshot) ~(shards_down : int) : float option =
  match r.r_source with
  | Gauge g -> Option.map float_of_int (List.assoc_opt g snapshot.Metrics.gauges)
  | P99 h ->
    Option.map (fun st -> st.Metrics.h_p99) (List.assoc_opt h snapshot.Metrics.histograms)
  | Shards_down -> Some (float_of_int shards_down)
  | Rate c ->
    (match prev with
     | Some (t0, s0) when now > t0 ->
       Some (float_of_int (counter_value snapshot c - counter_value s0 c) /. (now -. t0))
     | _ -> None)
  | Ratio (num, den) ->
    (match prev with
     | Some (_, s0) ->
       let dden = counter_value snapshot den - counter_value s0 den in
       if dden <= 0 then None
       else Some (float_of_int (counter_value snapshot num - counter_value s0 num)
                  /. float_of_int dden)
     | None -> None)

let breaches (r : rule) (v : float) : bool =
  match r.r_cmp with Gt -> v > r.r_threshold | Lt -> v < r.r_threshold

let alert_fields ~(now : float) (a : alert) (state : string) : Log.field list =
  [ Log.str "rule" a.a_rule; Log.str "state" state; Log.float "value" a.a_value;
    Log.float "threshold" a.a_threshold;
    (* The age, not the epoch timestamp: the event's own ts already
       anchors it in time, and %g would garble an epoch float. *)
    Log.float "firing_s" (max 0. (now -. a.a_since));
    Log.str "message" a.a_message ]

(* One evaluation pass. Transitions log as `alert` events: firing at
   Warn, resolved at Info. Steady states (still firing / still quiet)
   stay silent, so the log carries edges, not levels. *)
let poll ?now (t : t) ~(snapshot : Metrics.snapshot) ~(shards_down : int) : unit =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  Mutex.lock t.lock;
  let prev = t.prev in
  List.iter
    (fun r ->
      match evaluate r ~prev ~now ~snapshot ~shards_down with
      | None -> ()
      | Some v ->
        let was = Hashtbl.find_opt t.firing r.r_name in
        if breaches r v then begin
          let a =
            match was with
            | Some a -> { a with a_value = v }
            | None ->
              { a_rule = r.r_name; a_since = now; a_value = v; a_threshold = r.r_threshold;
                a_message =
                  Printf.sprintf "%s: %s = %g %s %g" r.r_name (source_to_string r.r_source) v
                    (cmp_to_string r.r_cmp) r.r_threshold }
          in
          Hashtbl.replace t.firing r.r_name a;
          if was = None then Log.warn "alert" ~fields:(alert_fields ~now a "firing")
        end
        else
          match was with
          | Some a ->
            Hashtbl.remove t.firing r.r_name;
            Log.info "alert" ~fields:(alert_fields ~now { a with a_value = v } "resolved")
          | None -> ())
    t.rules;
  t.prev <- Some (now, snapshot);
  Mutex.unlock t.lock

let active (t : t) : alert list =
  Mutex.lock t.lock;
  let out = Hashtbl.fold (fun _ a acc -> a :: acc) t.firing [] in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.a_rule b.a_rule) out

let firing_count (t : t) : int =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.firing in
  Mutex.unlock t.lock;
  n
