(* Sampling resource profiler.

   Two samplers behind one switch, picked at [start] time:

   - [Memprof]: [Gc.Memprof] statistical allocation sampling. Each
     sampled block is attributed to the span open on the allocating
     domain ({!Trace.current_span_name}) — the callback runs
     synchronously at the allocation point, so the DLS span stack is
     exactly the attribution we want. Words are scaled by the inverse
     sampling rate to estimate true allocation.

   - [Spans]: the fallback for runtimes where multicore Memprof is
     unavailable (OCaml 5.0/5.1 raise [Failure] from
     [Gc.Memprof.start]). {!Trace.set_prof_hook} makes every span close
     measure the domain's allocated-words delta over the span and
     report the self part. Coarser (span-level, not per-block) but
     exact rather than sampled, and attribution lands on the same
     span names.

   Either way samples feed two sinks: the global site table here
   (process-wide top-N, for tests/dashboards) and the per-request
   allocation table inside {!Trace} (per-trace top-N, exported over the
   wire and into the Chrome trace).

   Overhead: the Spans sampler costs one [Gc.quick_stat] and one
   [Gc.minor_words] per span open/close, and spans are per-phase (a
   handful per request). It runs only under the server's --profile
   flag. *)

type site = { site_span : string; site_words : int; site_samples : int }

type mode = Off | Memprof | Spans

let mode_lock = Mutex.create ()
let current_mode = ref Off

(* span name → (words, samples), guarded by its own lock: sample
   recording must not contend with Trace's span-attachment lock. *)
let sites_lock = Mutex.create ()
let sites : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32

let record (span : string) (words : int) : unit =
  Mutex.lock sites_lock;
  (match Hashtbl.find_opt sites span with
   | Some (w, n) ->
     w := !w + words;
     n := !n + 1
   | None -> Hashtbl.add sites span (ref words, ref 1));
  Mutex.unlock sites_lock

(* Memprof callback: attribute the sample to the current span and to
   the current request's table, scaling by 1/rate so the recorded words
   estimate the true allocation. *)
let memprof_tracker (rate : float) : (unit, unit) Gc.Memprof.tracker =
  let sample (size_words : int) (n_samples : int) =
    let words = int_of_float (float_of_int (size_words * n_samples) /. rate) in
    let span = Option.value ~default:"(no span)" (Trace.current_span_name ()) in
    record span words;
    Trace.note_alloc ~span ~words
  in
  { alloc_minor =
      (fun (a : Gc.Memprof.allocation) ->
        sample a.Gc.Memprof.size a.Gc.Memprof.n_samples;
        Some ());
    alloc_major =
      (fun (a : Gc.Memprof.allocation) ->
        sample a.Gc.Memprof.size a.Gc.Memprof.n_samples;
        Some ());
    promote = (fun () -> Some ());
    dealloc_minor = (fun () -> ());
    dealloc_major = (fun () -> ()) }

let default_rate = 1e-3

let start ?(rate = default_rate) () : unit =
  Mutex.lock mode_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock mode_lock) @@ fun () ->
  if !current_mode = Off then begin
    if rate <= 0. || rate > 1. then
      invalid_arg (Printf.sprintf "Prof.start: rate %g outside (0, 1]" rate);
    match
      (try
         ignore (Gc.Memprof.start ~sampling_rate:rate (memprof_tracker rate));
         true
       with Failure _ -> false)
    with
    | true -> current_mode := Memprof
    | false ->
      Trace.set_prof_hook (Some record);
      current_mode := Spans
  end

let stop () : unit =
  Mutex.lock mode_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock mode_lock) @@ fun () ->
  (match !current_mode with
   | Off -> ()
   | Memprof -> ( try Gc.Memprof.stop () with Failure _ -> ())
   | Spans -> Trace.set_prof_hook None);
  current_mode := Off

let active () : bool = !current_mode <> Off

let mode_name () : string =
  match !current_mode with Off -> "off" | Memprof -> "memprof" | Spans -> "spans"

let reset () : unit =
  Mutex.lock sites_lock;
  Hashtbl.reset sites;
  Mutex.unlock sites_lock

let top_sites ?(n = 10) () : site list =
  Mutex.lock sites_lock;
  let l =
    Hashtbl.fold
      (fun span (w, c) acc -> { site_span = span; site_words = !w; site_samples = !c } :: acc)
      sites []
  in
  Mutex.unlock sites_lock;
  let sorted = List.sort (fun a b -> compare b.site_words a.site_words) l in
  List.filteri (fun i _ -> i < n) sorted
