(* Sampling resource profiler.

   {!Trace.set_prof_hook} makes every span close measure the domain's
   allocated-words delta over the span and report the self part:
   span-level rather than per-block, but exact rather than sampled.
   (Statistical [Gc.Memprof] sampling is not an option on OCaml 5.1,
   whose [Gc.Memprof.start] raises "not implemented in multicore".)

   Samples feed two sinks: the global site table here (process-wide
   top-N, for tests/dashboards) and the per-request allocation table
   inside {!Trace} (per-trace top-N, exported over the wire and into the
   Chrome trace).

   Overhead: one [Gc.quick_stat] and one [Gc.minor_words] per span
   open/close, and spans are per-phase (a handful per request). It runs
   only under the --profile flag. *)

type site = { site_span : string; site_words : int; site_samples : int }

let running_lock = Mutex.create ()
let running = ref false

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

let start () : unit =
  Mutex.protect running_lock (fun () ->
      Trace.set_prof_hook (Some record);
      running := true)

let stop () : unit =
  Mutex.protect running_lock (fun () ->
      Trace.set_prof_hook None;
      running := false)

let active () : bool = Mutex.protect running_lock (fun () -> !running)

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
