(* Span tracing, domain-safe: every domain keeps its own stack of open
   frames in domain-local storage, so spans opened on a pool worker can
   never race the stack of the domain that submitted the work. A worker
   running a task for another domain's request inherits that request's
   context (see [capture]/[with_ctx]): its spans attach under the
   submitting frame, so each request still builds one intact tree no
   matter how many domains executed parts of it.

   Finished trees land in one of two mutex-guarded bounded rings:
   ambient roots (spans closed outside any [with_request], the CLI and
   bench path) in [completed_roots], request traces in
   [completed_requests]. Both are capped so a long-running server cannot
   grow without bound, and both are read/reset under the same lock —
   the old plain-[ref] completed list raced [roots]/[reset] against
   whichever domain finished a root span.

   Every completed request carries one list of named counts: its cost
   block ([cost.<entry>], from the {!Metrics} scope), its GC
   differential ([gc.<field>], on the domain that ran it) and, when the
   profiler ({!Sagma_obs.Prof}) is active, a span-name → allocated-words
   table ([alloc.<span>], from allocation deltas measured at span close
   via the [prof_hook]). *)

type span = {
  name : string;
  t0 : float;
  ms : float;
  children : span list;
}

type rtrace = {
  r_id : string;
  r_start : float;
  r_root : span;
  mutable r_counts : (string * int) list;
}

(* --- per-domain state ------------------------------------------------------- *)

(* [f_alloc0] is the domain's allocated-words counter when the frame
   opened, or -1 when the profiler was off at open time; [f_child_w]
   accumulates the words charged to same-domain children so the close
   can compute the frame's self-allocation. *)
type frame = {
  f_name : string;
  f_start : float;
  mutable children_rev : span list;
  mutable f_alloc0 : float;
  mutable f_child_w : float;
}

(* The per-request allocation table (span name → words). Written under
   [lock]: samples can land from any domain that inherited the request
   context. *)
type alloc_tab = (string, int) Hashtbl.t

type dstate = {
  mutable d_base : frame option;  (* inherited parent for pool tasks *)
  mutable d_stack : frame list;   (* frames opened on this domain, innermost first *)
  mutable d_alloc : alloc_tab option;  (* current request's allocation table *)
  mutable d_req_id : string option;  (* id of the request being traced *)
}

let state : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { d_base = None; d_stack = []; d_alloc = None; d_req_id = None })

(* One lock covers cross-domain frame attachment, both completed rings
   and the per-request allocation tables. Span closes are coarse
   (request phases and aggregation chunks, never per-row work), so the
   serialization is unmeasurable. *)
let lock = Mutex.create ()

let completed_roots : span Queue.t = Queue.create ()
let completed_requests : rtrace Queue.t = Queue.create ()
let max_completed = 1024

let push_bounded (q : 'a Queue.t) (v : 'a) : unit =
  Queue.push v q;
  if Queue.length q > max_completed then ignore (Queue.pop q)

let now () = Unix.gettimeofday ()

(* --- profiler plumbing ------------------------------------------------------- *)

(* When set, span closes measure their allocation delta and report
   (name, self words) — the profiler's sampler. Checked once per span
   close; [None] keeps the tracing fast path free of any Gc call. *)
let prof_hook : (string -> int -> unit) option Atomic.t = Atomic.make None

let set_prof_hook h = Atomic.set prof_hook h

(* The minor part comes from [Gc.minor_words ()]: the stat's minor_words
   only advances at a minor collection on OCaml 5, so a span lighter than
   the minor heap would read 0 (see [gc_reading]). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let frame_alloc_base () =
  match Atomic.get prof_hook with None -> -1. | Some _ -> allocated_words ()

(* Self-allocation of a closing frame: total words since open minus the
   words already charged to same-domain children. The total (not the
   self part) rolls up into the parent's child counter so nesting never
   double-counts. Returns 0 when the profiler was off at open time or
   is off now. *)
let frame_self_words (st : dstate) (fr : frame) : int =
  if fr.f_alloc0 < 0. then 0
  else
    match Atomic.get prof_hook with
    | None -> 0
    | Some _ ->
      let total = allocated_words () -. fr.f_alloc0 in
      (match st.d_stack with
       | parent :: _ -> parent.f_child_w <- parent.f_child_w +. total
       | [] -> ());
      int_of_float (Float.max 0. (total -. fr.f_child_w))

(* Charge a closing frame's self-allocation to the current request's
   table (when profiling one) and report it to the profiler. *)
let charge_alloc (name : string) (words : int) : unit =
  if words > 0 then begin
    (match (Domain.DLS.get state).d_alloc with
     | None -> ()
     | Some tab ->
       Mutex.lock lock;
       let prev = Option.value ~default:0 (Hashtbl.find_opt tab name) in
       Hashtbl.replace tab name (prev + words);
       Mutex.unlock lock);
    match Atomic.get prof_hook with Some hook -> hook name words | None -> ()
  end

let close_frame (st : dstate) (fr : frame) : unit =
  let ms = (now () -. fr.f_start) *. 1000. in
  (match st.d_stack with
   | top :: rest when top == fr -> st.d_stack <- rest
   | _ -> () (* unbalanced close: drop rather than corrupt the stack *));
  charge_alloc fr.f_name (frame_self_words st fr);
  let sp = { name = fr.f_name; t0 = fr.f_start; ms; children = List.rev fr.children_rev } in
  Mutex.lock lock;
  (match st.d_stack with
   | parent :: _ -> parent.children_rev <- sp :: parent.children_rev
   | [] ->
     (match st.d_base with
      | Some parent -> parent.children_rev <- sp :: parent.children_rev
      | None -> push_bounded completed_roots sp));
  Mutex.unlock lock

let with_span name f =
  if not !Metrics.enabled then f ()
  else begin
    let st = Domain.DLS.get state in
    let fr =
      { f_name = name; f_start = now (); children_rev = [];
        f_alloc0 = frame_alloc_base (); f_child_w = 0. }
    in
    st.d_stack <- fr :: st.d_stack;
    match f () with
    | v ->
      close_frame st fr;
      v
    | exception e ->
      close_frame st fr;
      raise e
  end

(* --- context inheritance ----------------------------------------------------- *)

type ctx = {
  x_parent : frame option;
  x_scope : Metrics.scope option;
  x_alloc : alloc_tab option;
}

let capture () : ctx =
  if not !Metrics.enabled then { x_parent = None; x_scope = None; x_alloc = None }
  else begin
    let st = Domain.DLS.get state in
    let parent = match st.d_stack with fr :: _ -> Some fr | [] -> st.d_base in
    { x_parent = parent; x_scope = Metrics.scope_current (); x_alloc = st.d_alloc }
  end

let with_ctx (ctx : ctx) (f : unit -> 'a) : 'a =
  let st = Domain.DLS.get state in
  let saved_base = st.d_base and saved_stack = st.d_stack and saved_alloc = st.d_alloc in
  let saved_scope = Metrics.scope_swap ctx.x_scope in
  st.d_base <- ctx.x_parent;
  st.d_stack <- [];
  st.d_alloc <- ctx.x_alloc;
  Fun.protect
    ~finally:(fun () ->
      ignore (Metrics.scope_swap saved_scope);
      st.d_base <- saved_base;
      st.d_stack <- saved_stack;
      st.d_alloc <- saved_alloc)
    f

(* The id of the request [with_request] is tracing on this domain. A
   query router propagates it across the coordinator → shard hop as the
   trace context, so both nodes record the same trace id. *)
let current_request_id () : string option = (Domain.DLS.get state).d_req_id

(* Graft an already-completed span — e.g. one rebuilt from a shard's
   EXPLAIN timings — under the innermost open frame, so a distributed
   request renders as one tree. No-op outside any open span. *)
let attach_span (sp : span) : unit =
  if !Metrics.enabled then begin
    let st = Domain.DLS.get state in
    match (st.d_stack, st.d_base) with
    | fr :: _, _ | [], Some fr ->
      Mutex.lock lock;
      fr.children_rev <- sp :: fr.children_rev;
      Mutex.unlock lock
    | [], None -> ()
  end

(* --- per-request traces ------------------------------------------------------ *)

let trace_seq = Atomic.make 0

let next_trace_id () =
  Printf.sprintf "t%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add trace_seq 1 + 1)

(* A GC reading: [Gc.quick_stat] plus [Gc.minor_words ()]. On OCaml 5 the
   stat's minor_words only advances at a minor collection, so a request
   lighter than the minor heap would read 0; [Gc.minor_words ()] also
   counts this domain's allocation since the last collection. The
   allocation counters are domain-local, so a request whose row work ran
   on pool domains reports the coordinating domain's share — cheap,
   monotone, and exact for that domain. All counts are in words. *)
let gc_reading () = (Gc.quick_stat (), Gc.minor_words ())

let gc_counts ~(before : Gc.stat * float) ~(after : Gc.stat * float) : (string * int) list =
  let (before, minor0), (after, minor1) = (before, after) in
  [ ("gc.minor_words", int_of_float (minor1 -. minor0));
    ("gc.promoted_words", int_of_float (after.Gc.promoted_words -. before.Gc.promoted_words));
    ("gc.major_words", int_of_float (after.Gc.major_words -. before.Gc.major_words));
    ("gc.minor_collections", after.Gc.minor_collections - before.Gc.minor_collections);
    ("gc.major_collections", after.Gc.major_collections - before.Gc.major_collections);
    (* the major heap's size when the request finished, then its growth *)
    ("gc.heap_words", after.Gc.heap_words);
    ("gc.heap_growth", after.Gc.heap_words - before.Gc.heap_words) ]

let empty_root = { name = "request"; t0 = 0.; ms = 0.; children = [] }

let alloc_table_entries (tab : alloc_tab) : (string * int) list =
  Mutex.lock lock;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tab [] in
  Mutex.unlock lock;
  List.sort (fun (_, a) (_, b) -> compare b a) l

let with_request ?trace_id f =
  if not !Metrics.enabled then begin
    let v = f () in
    ( v,
      { r_id = (match trace_id with Some id -> id | None -> ""); r_start = 0.;
        r_root = empty_root; r_counts = [] } )
  end
  else begin
    let id = match trace_id with Some id -> id | None -> next_trace_id () in
    let st = Domain.DLS.get state in
    let saved_base = st.d_base and saved_stack = st.d_stack and saved_alloc = st.d_alloc in
    let saved_req_id = st.d_req_id in
    let sc = Metrics.scope_create () in
    let saved_scope = Metrics.scope_swap (Some sc) in
    let gc0 = gc_reading () in
    let start = now () in
    let root =
      { f_name = "request"; f_start = start; children_rev = [];
        f_alloc0 = frame_alloc_base (); f_child_w = 0. }
    in
    st.d_base <- None;
    st.d_stack <- [ root ];
    st.d_req_id <- Some id;
    st.d_alloc <-
      (match Atomic.get prof_hook with Some _ -> Some (Hashtbl.create 8) | None -> None);
    let tab = st.d_alloc in
    let finish () =
      let ms = (now () -. start) *. 1000. in
      (* Root self-allocation: measure before restoring the stack so the
         frame's children counter is complete. The stack is forced to
         [] first so the root's total does not roll up anywhere. *)
      st.d_stack <- [];
      charge_alloc "request" (frame_self_words st root);
      st.d_stack <- saved_stack;
      st.d_base <- saved_base;
      st.d_alloc <- saved_alloc;
      st.d_req_id <- saved_req_id;
      ignore (Metrics.scope_swap saved_scope);
      let sp = { name = "request"; t0 = start; ms; children = List.rev root.children_rev } in
      let alloc = match tab with Some t -> alloc_table_entries t | None -> [] in
      let rt =
        { r_id = id; r_start = start; r_root = sp;
          r_counts =
            List.map (fun (k, v) -> ("cost." ^ k, v)) (Metrics.scope_counts sc)
            @ gc_counts ~before:gc0 ~after:(gc_reading ())
            @ List.map (fun (k, v) -> ("alloc." ^ k, v)) alloc }
      in
      Mutex.lock lock;
      push_bounded completed_requests rt;
      Mutex.unlock lock;
      rt
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

(* --- completed rings --------------------------------------------------------- *)

let drain (q : 'a Queue.t) : 'a list =
  Mutex.lock lock;
  let l = List.rev (Queue.fold (fun acc v -> v :: acc) [] q) in
  Mutex.unlock lock;
  l

let roots () : span list = drain completed_roots
let requests () : rtrace list = drain completed_requests

let reset () =
  let st = Domain.DLS.get state in
  st.d_base <- None;
  st.d_stack <- [];
  st.d_alloc <- None;
  st.d_req_id <- None;
  Mutex.lock lock;
  Queue.clear completed_roots;
  Queue.clear completed_requests;
  Mutex.unlock lock

(* --- rendering --------------------------------------------------------------- *)

let phase_timings (s : span) : (string * float) list =
  List.map (fun c -> (c.name, c.ms)) s.children

let rec pp_indented fmt indent (s : span) =
  Format.fprintf fmt "%s%-*s %8.1f ms@," indent (max 1 (32 - String.length indent)) s.name s.ms;
  List.iter (pp_indented fmt (indent ^ "  ")) s.children

let pp fmt s =
  Format.fprintf fmt "@[<v>";
  pp_indented fmt "" s;
  Format.fprintf fmt "@]"

let rec to_json (s : span) : Json.t =
  Obj [ ("name", Str s.name); ("ms", Num s.ms); ("children", Arr (List.map to_json s.children)) ]

(* Chrome trace-event JSON (the chrome://tracing / Perfetto format):
   each span becomes one "X" complete event with microsecond timestamps;
   traces are separated by thread id so concurrent requests render as
   parallel tracks. The root event's [args] carry the trace id and every
   named count of the request. *)
let chrome_json (ts : rtrace list) : Json.t =
  let events =
    List.concat
      (List.mapi
         (fun i rt ->
           let tid = Json.int (i + 1) in
           let root_args =
             ("trace_id", Json.Str rt.r_id) :: List.map (fun (k, v) -> (k, Json.int v)) rt.r_counts
           in
           let rec walk (sp : span) =
             Json.Obj
               ([ ("name", Json.Str sp.name); ("ph", Str "X"); ("ts", Num (sp.t0 *. 1e6));
                  ("dur", Num (sp.ms *. 1000.)); ("pid", Num 1.); ("tid", tid) ]
               @ if sp == rt.r_root then [ ("args", Obj root_args) ] else [])
             :: List.concat_map walk sp.children
           in
           Json.Obj
             [ ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Num 1.); ("tid", tid);
               ("args", Obj [ ("name", Str rt.r_id) ]) ]
           :: walk rt.r_root)
         ts)
  in
  Obj [ ("displayTimeUnit", Str "ms"); ("traceEvents", Arr events) ]
