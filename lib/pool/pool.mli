(** A fixed-size domain pool with a shared task queue.

    Worker domains outlive their tasks and are fed through {!submit},
    so the server path pays the (multi-millisecond) cost of
    [Domain.spawn] once per worker instead of per request or per
    aggregation bucket. A worker is spawned when a task finds no idle
    one, until the pool's size is reached, so a pool nobody uses runs
    no domain. An idle worker still costs a busy process time: OCaml 5
    stops every domain, idle ones included, for each minor collection.

    Deadlock discipline: a task must never {!await} a future submitted
    to its {e own} pool, since with every worker blocked in such a wait
    no worker is left to run the awaited tasks. A server node runs its
    requests and its aggregation helpers on one pool and keeps to this:
    - a request task never awaits a future of its own pool: {!run_jobs}
      drains its job list on the caller and waits only for helpers
      already running one of its jobs, and helpers await nothing;
    - each node in one process needs its own pool, or a coordinator's
      requests could hold every worker its shards' requests need.

    Observability: submissions bump the [pool.tasks] counter and the
    [pool.queue_depth] gauge (decremented when a worker picks the task
    up), visible in every metrics snapshot and over the Stats RPC. *)

type t

val create : ?name:string -> workers:int -> unit -> t
(** [create ~workers ()] builds a pool of at most [workers] worker
    domains; none is spawned before the first {!submit}. [workers = 0]
    builds an inline pool: {!submit} runs the task
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
(** The pool's size: the most worker domains it runs at once (0 for an
    inline pool). *)

val live_workers : t -> int
(** Worker domains spawned so far. *)

val run_jobs : t option -> (unit -> 'a) array -> 'a array
(** [run_jobs pool jobs] runs every job exactly once and returns the
    results in index order. The calling domain takes jobs from the list
    itself; with a pool, one helper task is submitted for each worker
    that would otherwise sit idle (the pool's size minus the workers
    running a task minus the tasks queued, read under the pool's lock),
    at most [n - 1], and a worker that picks one up takes jobs from the
    same list. A pool whose workers are all busy gets no helper. The
    caller returns once the list is drained and every helper that took
    a job has finished its share; helpers that start later find the
    list empty and return at once.

    One helper's share of the list, from its first job to its last, is
    a ["chunk"] span under the caller's tracing context (helpers inherit
    it as {!submit} tasks do), timed also into the [pool.chunk_ms]
    histogram; a helper that takes no job opens none, and the caller's
    own jobs get none.

    After a job raises, no further job is handed out; the first
    exception is re-raised on the caller, with its backtrace, once every
    helper has left its job. Without a pool or with a zero-worker pool
    the jobs run in order on the caller. *)
