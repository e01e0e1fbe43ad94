(* Leakage auditor: record what the server actually touched, compare it
   with what the declared leakage function predicts.

   This module is deliberately ignorant of SAGMA: it records generic
   probes — (kind, tag, matching row ids) triples plus a paired-row
   count — against the current request, and [check] compares an observed
   trace with a caller-supplied prediction. The glue that derives the
   prediction from the declared leakage lives in the sagma library
   (which depends on this one, not vice versa).

   Recording follows the request path's threading shape: every probe for
   a request fires on the domain that runs its handler (the aggregation
   chunk workers never probe), so the in-progress builder lives in
   domain-local storage — concurrent requests served by a domain pool
   each see their own trace with no cross-talk — while the completed
   queue stays a mutex-guarded global shared by all domains. *)

type probe = { p_kind : string; p_tag : string; p_matches : int list }

type trace = { t_id : int; t_probes : probe list; t_rows_paired : int }

type verdict = Pass | Fail of string list

let enabled = ref false
let set_enabled b = enabled := b

(* --- recording ------------------------------------------------------------- *)

type builder = { b_id : int; mutable probes_rev : probe list; mutable rows : int }

let lock = Mutex.create ()

(* One in-progress builder per domain: a request's begin/probe/end all
   run on the domain serving it, so no lock is needed around the
   builder itself. *)
let current : builder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Completed traces, oldest at the queue's front, newest at its back,
   plus a running probe total over the retained traces so [summary]
   stays O(1) in probes.

   Retention cap: a long-lived server must not grow without bound; the
   CLI fetches the summary, tests fetch [traces] promptly. The queue
   gives an O(1) drop of the oldest trace per completed request. *)
let completed : trace Queue.t = Queue.create ()
let completed_probes = ref 0
let max_completed = 1024

let begin_request (id : int) : unit =
  if !enabled then
    Domain.DLS.get current := Some { b_id = id; probes_rev = []; rows = 0 }

let probe ~(kind : string) ~(tag : string) ~(matches : int list) : unit =
  if !enabled then
    match !(Domain.DLS.get current) with
    | Some b -> b.probes_rev <- { p_kind = kind; p_tag = tag; p_matches = matches } :: b.probes_rev
    | None -> ()

let rows_paired (n : int) : unit =
  if !enabled then
    match !(Domain.DLS.get current) with Some b -> b.rows <- b.rows + n | None -> ()

let end_request () : trace option =
  if not !enabled then None
  else begin
    let cur = Domain.DLS.get current in
    match !cur with
    | None -> None
    | Some b ->
      cur := None;
      let t = { t_id = b.b_id; t_probes = List.rev b.probes_rev; t_rows_paired = b.rows } in
      Mutex.lock lock;
      Queue.push t completed;
      completed_probes := !completed_probes + List.length t.t_probes;
      if Queue.length completed > max_completed then begin
        let oldest = Queue.pop completed in
        completed_probes := !completed_probes - List.length oldest.t_probes
      end;
      Mutex.unlock lock;
      Some t
  end

let traces () : trace list =
  Mutex.lock lock;
  let ts = List.rev (Queue.fold (fun acc t -> t :: acc) [] completed) in
  Mutex.unlock lock;
  ts

let checks_run = Atomic.make 0
let check_failures = Atomic.make 0

let reset () =
  Domain.DLS.get current := None;
  Mutex.lock lock;
  Queue.clear completed;
  completed_probes := 0;
  Mutex.unlock lock;
  Atomic.set checks_run 0;
  Atomic.set check_failures 0

(* --- checking -------------------------------------------------------------- *)

let sorted_uniq (xs : int list) : int list = List.sort_uniq compare xs

let pp_ids (ids : int list) : string =
  "[" ^ String.concat "," (List.map string_of_int ids) ^ "]"

let check ?(max_rows_paired : int option)
    ~(predicted : (string * string * int list) list) (t : trace) : verdict =
  ignore (Atomic.fetch_and_add checks_run 1);
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* Every probe the server performed must be predicted: same (kind, tag)
     declared, and exactly the predicted row ids observed. An extra
     probe, a probe on an undeclared tag, or a posting list differing
     from the declared access pattern all fail. *)
  List.iter
    (fun p ->
      match
        List.find_opt (fun (k, tag, _) -> k = p.p_kind && tag = p.p_tag) predicted
      with
      | None ->
        err "unpredicted probe: kind=%s tag=%s matches=%s (declared leakage has no such access)"
          p.p_kind p.p_tag (pp_ids (sorted_uniq p.p_matches))
      | Some (_, _, want) ->
        let got = sorted_uniq p.p_matches and want = sorted_uniq want in
        if got <> want then
          err "access pattern mismatch: kind=%s tag=%s observed=%s predicted=%s" p.p_kind
            p.p_tag (pp_ids got) (pp_ids want))
    t.t_probes;
  (* Duplicate probes of one (kind, tag) are fine — repetition is the
     search pattern, which the leakage declares — but pairing more rows
     than the predicted result width means the server combined
     ciphertexts the query should never touch. *)
  (match max_rows_paired with
   | Some bound when t.t_rows_paired > bound ->
     err "rows paired beyond prediction: paired=%d predicted<=%d" t.t_rows_paired bound
   | _ -> ());
  match !errors with
  | [] -> Pass
  | es ->
    ignore (Atomic.fetch_and_add check_failures 1);
    Fail (List.rev es)

let pp_verdict fmt = function
  | Pass -> Format.fprintf fmt "Pass"
  | Fail es ->
    Format.fprintf fmt "@[<v>Fail:%t@]" (fun fmt ->
        List.iter (fun e -> Format.fprintf fmt "@,  %s" e) es)

(* --- summary --------------------------------------------------------------- *)

type summary = {
  s_requests : int;
  s_probes : int;
  s_checks_run : int;
  s_check_failures : int;
}

let summary () : summary =
  Mutex.lock lock;
  let requests = Queue.length completed in
  let probes = !completed_probes in
  Mutex.unlock lock;
  { s_requests = requests; s_probes = probes; s_checks_run = Atomic.get checks_run;
    s_check_failures = Atomic.get check_failures }
