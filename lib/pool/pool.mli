(** A fixed-size domain pool with a shared task queue.

    Worker domains are spawned once at {!create} and fed through
    {!submit}, so the server path pays the (multi-millisecond) cost of
    [Domain.spawn] per process instead of per connection or per
    aggregation bucket.

    Deadlock discipline: a task running on a pool must never {!await} a
    future submitted to the {e same} pool — with every worker blocked in
    such a wait no worker is left to run the awaited tasks. The server
    therefore uses two instances (one for connections, one for
    aggregation chunks), and aggregation tasks never await anything.

    Observability: submissions bump the [pool.tasks] counter and the
    [pool.queue_depth] gauge (decremented when a worker picks the task
    up), visible in every metrics snapshot and over the Stats RPC. *)

type t

val create : ?name:string -> workers:int -> unit -> t
(** [create ~workers ()] spawns [workers] domains that block on the
    queue. [workers = 0] builds an inline pool: {!submit} runs the task
    on the calling domain before returning — same API, sequential
    behavior. [name] only labels error messages.
    @raise Invalid_argument if [workers < 0]. *)

type 'a future
(** The pending result of a submitted task. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. Any exception it raises is captured with its
    backtrace and re-raised by {!await}. The submitting domain's tracing
    context ([Sagma_obs.Trace.capture]) is installed around the task, so
    spans it opens and cost-counter deltas it records are attributed to
    the submitting request.
    @raise Invalid_argument if the pool was {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception (with the original backtrace). Safe to call from any
    domain, any number of times. *)

val shutdown : t -> unit
(** Stop accepting tasks, let the workers drain everything already
    queued, and join them. Idempotent; concurrent callers may return
    before the join completes (the first caller owns it). *)

val workers : t -> int
(** Number of worker domains (0 for an inline pool). *)
