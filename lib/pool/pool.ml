(* A fixed-size domain pool: worker domains are fed from a shared queue
   and outlive their tasks, so the cost of [Domain.spawn] is paid once
   per worker instead of per request or per aggregation bucket.

   A server node runs one pool: its requests are tasks, and [run_jobs]
   lends the workers no request occupies to a query's aggregation jobs.
   There the caller drains its own job list and waits only for helpers
   already inside one of its jobs, and helpers never await anything,
   so a request never waits on a task still queued on its own pool.

   An idle worker is not free: it holds no runtime lock while blocked
   in [Condition.wait], but OCaml 5 stops every domain for each minor
   collection, idle ones included. Workers are therefore spawned on
   demand, up to the pool's size, when a task finds none idle, and
   [run_jobs] offers helpers only to workers that would sit idle. *)

module Obs = Sagma_obs.Metrics
module Trace = Sagma_obs.Trace

let m_tasks = Obs.counter "pool.tasks"
let g_queue_depth = Obs.gauge "pool.queue_depth"
let h_chunk_ms = Obs.histogram "pool.chunk_ms"

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_lock : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a state;
}

type t = {
  p_name : string;
  size : int;              (* the most workers alive at once *)
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;   (* no further submits; workers drain and exit *)
  mutable joined : bool;   (* some caller already owns the Domain.join *)
  mutable domains : unit Domain.t list;  (* every worker spawned *)
  mutable idle : int;      (* workers blocked waiting for a task *)
  mutable running : int;   (* workers inside a task *)
}

(* Workers drain the queue even after [closed] is set, so shutdown
   completes queued work rather than dropping it. *)
let worker_loop (p : t) : unit =
  Mutex.lock p.lock;
  let rec next () =
    while Queue.is_empty p.queue && not p.closed do
      p.idle <- p.idle + 1;
      Condition.wait p.nonempty p.lock;
      p.idle <- p.idle - 1
    done;
    match Queue.take_opt p.queue with
    | Some task ->
      p.running <- p.running + 1;
      Mutex.unlock p.lock;
      Obs.gauge_decr g_queue_depth;
      task ();
      Mutex.lock p.lock;
      p.running <- p.running - 1;
      next ()
    | None -> Mutex.unlock p.lock
  in
  next ()

let create ?(name = "pool") ~(workers : int) () : t =
  if workers < 0 then invalid_arg "Pool.create: workers must be >= 0";
  { p_name = name; size = workers; lock = Mutex.create (); nonempty = Condition.create ();
    queue = Queue.create (); closed = false; joined = false; domains = []; idle = 0;
    running = 0 }

let workers (p : t) : int = p.size

let fulfill (fut : 'a future) (st : 'a state) : unit =
  Mutex.lock fut.f_lock;
  fut.f_state <- st;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_lock

let submit (p : t) (fn : unit -> 'a) : 'a future =
  let fut = { f_lock = Mutex.create (); f_cond = Condition.create (); f_state = Pending } in
  (* Captured on the submitting domain: the worker installs the
     submitter's trace frame and cost scope around [fn], so spans and
     counter deltas of pooled work land in the request that submitted
     it rather than in the worker's own (empty) context. *)
  let ctx = Trace.capture () in
  let run () =
    let st =
      match Trace.with_ctx ctx fn with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    fulfill fut st
  in
  Obs.incr m_tasks;
  if p.size = 0 then begin
    (* A zero-worker pool executes inline: callers get sequential
       behavior through the same API (the bench baseline, and a safe
       fallback anywhere a pool is optional). *)
    run ();
    fut
  end
  else begin
    Mutex.lock p.lock;
    if p.closed then begin
      Mutex.unlock p.lock;
      invalid_arg (Printf.sprintf "Pool.submit: pool %s is shut down" p.p_name)
    end;
    (* Spawn before queueing, so a failed spawn leaves nothing queued.
       The new worker blocks on [lock] until this submit releases it. *)
    if Queue.length p.queue >= p.idle && List.length p.domains < p.size then begin
      match Domain.spawn (fun () -> worker_loop p) with
      | d -> p.domains <- d :: p.domains
      | exception e ->
        Mutex.unlock p.lock;
        raise e
    end;
    Queue.push run p.queue;
    Obs.gauge_incr g_queue_depth;
    Condition.signal p.nonempty;
    Mutex.unlock p.lock;
    fut
  end

let await (fut : 'a future) : 'a =
  Mutex.lock fut.f_lock;
  let rec wait () =
    match fut.f_state with
    | Pending ->
      Condition.wait fut.f_cond fut.f_lock;
      wait ()
    | Done v ->
      Mutex.unlock fut.f_lock;
      v
    | Failed (e, bt) ->
      Mutex.unlock fut.f_lock;
      Printexc.raise_with_backtrace e bt
  in
  wait ()

let shutdown (p : t) : unit =
  Mutex.lock p.lock;
  p.closed <- true;
  Condition.broadcast p.nonempty;
  let join_here = not p.joined in
  p.joined <- true;
  let live = p.domains in
  Mutex.unlock p.lock;
  if join_here then List.iter Domain.join live

let live_workers (p : t) : int = Mutex.protect p.lock (fun () -> List.length p.domains)

(* One job list being drained. [next], [inside] and [error] change under
   [b_lock]; a job writes only its own result slot, and the caller reads
   the slots after the lock has seen every helper leave. *)
type 'a batch = {
  jobs : (unit -> 'a) array;
  results : 'a option array;
  b_lock : Mutex.t;
  b_idle : Condition.t;  (* broadcast when [inside] drops to 0 *)
  mutable next : int;    (* the first job nobody has taken *)
  mutable inside : int;  (* helpers between their first job and the end of their span *)
  mutable error : (exn * Printexc.raw_backtrace) option;  (* the first raise *)
}

let locked (b : 'a batch) (f : unit -> 'r) : 'r =
  Mutex.lock b.b_lock;
  let r = f () in
  Mutex.unlock b.b_lock;
  r

(* Under [b_lock]: jobs are handed out until the list is exhausted or
   one has raised. *)
let take (b : 'a batch) : int option =
  if b.next < Array.length b.jobs && Option.is_none b.error then begin
    b.next <- b.next + 1;
    Some (b.next - 1)
  end
  else None

let run_job (b : 'a batch) (i : int) : unit =
  match b.jobs.(i) () with
  | v -> b.results.(i) <- Some v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    locked b (fun () -> if Option.is_none b.error then b.error <- Some (e, bt))

(* A helper's share of the list, from its first job to its last, is one
   "chunk" span, timed into [pool.chunk_ms]. The helper counts as
   [inside] until that span has closed, so the caller (which waits for
   [inside = 0]) outlives every span a helper opens under its trace
   context. A helper that finds the list already drained returns
   without opening a span: it may run after the caller has returned, so
   it must touch nothing of the request. *)
let help (b : 'a batch) () : unit =
  let first =
    locked b (fun () ->
        let i = take b in
        if Option.is_some i then b.inside <- b.inside + 1;
        i)
  in
  Option.iter
    (fun i ->
      Fun.protect
        ~finally:(fun () ->
          locked b (fun () ->
              b.inside <- b.inside - 1;
              if b.inside = 0 then Condition.broadcast b.b_idle))
        (fun () ->
          Trace.with_span "chunk" (fun () ->
              Obs.observe_ms h_chunk_ms (fun () ->
                  let rec go i =
                    run_job b i;
                    Option.iter go (locked b (fun () -> take b))
                  in
                  go i))))
    first

let run_jobs (pool : t option) (jobs : (unit -> 'a) array) : 'a array =
  match pool with
  | Some p when p.size > 0 ->
    let b =
      { jobs; results = Array.make (Array.length jobs) None; b_lock = Mutex.create ();
        b_idle = Condition.create (); next = 0; inside = 0; error = None }
    in
    (* Helpers go only to workers that would otherwise sit idle: those
       neither running a task nor owed one by the queue. A busy pool
       gets none, so its queued requests never wait behind them. *)
    let spare = Mutex.protect p.lock (fun () -> p.size - p.running - Queue.length p.queue) in
    for _ = 1 to min spare (Array.length jobs - 1) do
      ignore (submit p (help b))
    done;
    let rec drain () =
      Option.iter
        (fun i ->
          run_job b i;
          drain ())
        (locked b (fun () -> take b))
    in
    drain ();
    locked b (fun () ->
        while b.inside > 0 do
          Condition.wait b.b_idle b.b_lock
        done);
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) b.error;
    Array.map Option.get b.results
  | _ -> Array.map (fun job -> job ()) jobs
