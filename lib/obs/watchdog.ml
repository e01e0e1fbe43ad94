(* SLO watchdog: a small declarative rule engine over metrics snapshots.

   A rule names a signal source (a counter ratio over the poll interval,
   a gauge level, a histogram p99, or the fleet's down-shard count) and
   a threshold it fires above. {!poll} evaluates every rule
   against the latest snapshot, tracks firing state per rule, and emits
   a structured "alert" log event on each firing→resolved transition —
   so an operator tailing the JSON log, or a CI gate running
   `sagma_cli health`, sees SLO breaches as first-class events.

   Everything here reads counter/timing data the §4.2 leakage function
   already licenses; the watchdog widens no leakage envelope. *)

type source =
  | Ratio of string * string  (* delta(a) / delta(b) over the poll interval *)
  | Gauge of string           (* current level *)
  | P99 of string             (* histogram p99 estimate, ms *)
  | Shards_down               (* count of unreachable shards (coordinator) *)

type rule = { r_name : string; r_source : source; r_threshold : float }

type alert = {
  a_rule : string;
  a_since : float;      (* epoch seconds the rule started firing *)
  a_value : float;      (* observation that last kept it firing *)
  a_threshold : float;
  a_message : string;
}

let source_to_string = function
  | Ratio (a, b) -> Printf.sprintf "ratio:%s/%s" a b
  | Gauge g -> Printf.sprintf "gauge:%s" g
  | P99 h -> Printf.sprintf "p99:%s" h
  | Shards_down -> "shards_down"

(* The default SLO set: error rate over the poll window, tail latency,
   pool backlog, and fleet integrity. Thresholds are deliberately
   loose. *)
let default_rules : rule list =
  [ { r_name = "error-rate"; r_source = Ratio ("proto.requests_failed", "proto.requests");
      r_threshold = 0.5 };
    { r_name = "p99-latency"; r_source = P99 "proto.request_ms"; r_threshold = 30_000. };
    { r_name = "queue-depth"; r_source = Gauge "pool.queue_depth"; r_threshold = 128. };
    { r_name = "shard-down"; r_source = Shards_down; r_threshold = 0. } ]

type t = {
  rules : rule list;
  lock : Mutex.t;
  mutable prev : Metrics.snapshot option;  (* the last poll's snapshot *)
  firing : (string, alert) Hashtbl.t;
}

let create ?(rules = default_rules) () : t =
  { rules; lock = Mutex.create (); prev = None; firing = Hashtbl.create 8 }

let counter_value (s : Metrics.snapshot) (name : string) : int =
  match List.assoc_opt name s.Metrics.counters with Some v -> v | None -> 0

(* [None] means "not evaluable this poll" (a ratio needs a previous
   snapshot and stays silent with no denominator traffic), which never
   changes the rule's firing state. *)
let evaluate (r : rule) ~(prev : Metrics.snapshot option) ~(snapshot : Metrics.snapshot)
    ~(shards_down : int) : float option =
  match r.r_source with
  | Gauge g -> Option.map float_of_int (List.assoc_opt g snapshot.Metrics.gauges)
  | P99 h ->
    Option.map (fun st -> Metrics.quantile st 0.99) (List.assoc_opt h snapshot.Metrics.histograms)
  | Shards_down -> Some (float_of_int shards_down)
  | Ratio (num, den) ->
    (match prev with
     | Some s0 ->
       let dden = counter_value snapshot den - counter_value s0 den in
       if dden <= 0 then None
       else Some (float_of_int (counter_value snapshot num - counter_value s0 num)
                  /. float_of_int dden)
     | None -> None)

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
      match evaluate r ~prev ~snapshot ~shards_down with
      | None -> ()
      | Some v ->
        let was = Hashtbl.find_opt t.firing r.r_name in
        if v > r.r_threshold then begin
          let a =
            match was with
            | Some a -> { a with a_value = v }
            | None ->
              { a_rule = r.r_name; a_since = now; a_value = v; a_threshold = r.r_threshold;
                a_message =
                  Printf.sprintf "%s: %s = %g > %g" r.r_name (source_to_string r.r_source) v
                    r.r_threshold }
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
  t.prev <- Some snapshot;
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
