(* A fixed-size domain pool: worker domains are spawned once and fed
   from a shared queue, so the cost of [Domain.spawn] is paid per
   process instead of per connection or per aggregation bucket.

   Two independent instances serve the two server-side uses — one pool
   runs connection handlers, another runs aggregation chunks — so a
   connection task awaiting its aggregation futures can never deadlock
   against the workers that must complete them. Aggregation tasks
   themselves never await anything.

   OCaml worker domains hold no runtime lock while blocked in
   [Condition.wait], so an idle pool costs nothing but memory. *)

module Obs = Sagma_obs.Metrics
module Trace = Sagma_obs.Trace

let m_tasks = Obs.counter "pool.tasks"
let g_queue_depth = Obs.gauge "pool.queue_depth"

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
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;   (* no further submits; workers drain and exit *)
  mutable joined : bool;   (* some caller already owns the Domain.join *)
  mutable domains : unit Domain.t array;
}

(* Workers drain the queue even after [closed] is set, so shutdown
   completes queued work rather than dropping it. *)
let rec worker_loop (p : t) : unit =
  Mutex.lock p.lock;
  while Queue.is_empty p.queue && not p.closed do
    Condition.wait p.nonempty p.lock
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.lock
  else begin
    let task = Queue.pop p.queue in
    Mutex.unlock p.lock;
    Obs.gauge_decr g_queue_depth;
    task ();
    worker_loop p
  end

let create ?(name = "pool") ~(workers : int) () : t =
  if workers < 0 then invalid_arg "Pool.create: workers must be >= 0";
  let p =
    { p_name = name; lock = Mutex.create (); nonempty = Condition.create ();
      queue = Queue.create (); closed = false; joined = false; domains = [||] }
  in
  p.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop p));
  p

let workers (p : t) : int = Array.length p.domains

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
  if Array.length p.domains = 0 then begin
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
  Mutex.unlock p.lock;
  if join_here then Array.iter Domain.join p.domains
