(** SLO watchdog: declarative alert rules over {!Metrics} snapshots.

    A {!rule} fires while a signal — a counter ratio over the poll
    interval, a gauge level, a histogram p99, or the fleet's
    down-shard count — is above its threshold. {!poll} evaluates
    every rule, tracks per-rule firing state, and emits a structured
    [alert] log event (via {!Log}) on each firing→resolved transition.
    Active alerts are served to peers in the
    [Health_report], and `sagma_cli health` exits non-zero while any
    fires, so fleet health is a CI-gateable check.

    The watchdog reads only counter/timing data the §4.2 leakage
    function already licenses. *)

type source =
  | Ratio of string * string
      (** [Ratio (num, den)]: delta(num)/delta(den) over the poll
          interval — e.g. the error rate
          [ratio:proto.requests_failed/proto.requests]. Not evaluated
          when the denominator saw no traffic. *)
  | Gauge of string  (** current gauge level *)
  | P99 of string  (** a histogram's p99 estimate, in ms *)
  | Shards_down  (** unreachable-shard count, fed by the caller *)

type rule = { r_name : string; r_source : source; r_threshold : float }
(** Fires while the source's value is above [r_threshold]. *)

type alert = {
  a_rule : string;
  a_since : float;  (** epoch seconds the rule started firing *)
  a_value : float;  (** observation that last kept it firing *)
  a_threshold : float;
  a_message : string;  (** human-readable, e.g. ["shard-down: shards_down = 1 > 0"] *)
}

type t

val create : ?rules:rule list -> unit -> t
(** A watchdog with no firing alerts and no poll history. [rules]
    defaults to the SLO set [error-rate] (ratio > 0.5), [p99-latency]
    (p99 proto.request_ms > 30000 ms), [queue-depth]
    (pool.queue_depth > 128) and [shard-down] (shards_down > 0). *)

val poll : ?now:float -> t -> snapshot:Metrics.snapshot -> shards_down:int -> unit
(** One evaluation pass against the current snapshot. Ratio rules need
    a delta, so they stay silent on the first poll. Transitions emit
    [alert] log events: firing at [Warn], resolved at [Info]; steady
    states are silent. [?now] (epoch seconds) defaults to the wall
    clock — tests pin it. Thread-safe. *)

val active : t -> alert list
(** Currently-firing alerts, sorted by rule name. *)

val firing_count : t -> int
