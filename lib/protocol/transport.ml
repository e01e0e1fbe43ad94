(* Length-prefixed message framing over file descriptors, plus the TCP
   serving loops used by the sagma_server binary and the CLI's remote
   commands.

   The accept loop can serve connections concurrently on a fixed-size
   domain pool ([?workers]); shared server state is the handlers'
   problem ({!Server} takes its own lock). Per-connection deadlines use
   SO_RCVTIMEO/SO_SNDTIMEO, so a stalled peer surfaces as
   [EAGAIN]/[EWOULDBLOCK] on that connection only. Above [?max_conns]
   in-flight connections, new arrivals are shed with a [Failed Busy]
   response instead of queueing without bound. *)

let max_frame = 1 lsl 30

(* Server-side default frame cap. The length header is attacker
   controlled, so the server should not honor the full 1 GiB protocol
   limit unless explicitly configured to; 64 MiB comfortably holds any
   realistic encrypted table upload. *)
let default_server_max_frame = 64 * 1024 * 1024

(* Frame bodies are read in chunks of this size, so memory committed to
   a connection grows with bytes actually received, never with the
   claimed length alone. *)
let recv_chunk = 64 * 1024

module Obs = Sagma_obs.Metrics
module Log = Sagma_obs.Log
module Pool = Sagma_pool.Pool

let m_conns = Obs.counter "transport.connections"
let m_frames_sent = Obs.counter "transport.frames_sent"
let m_bytes_sent = Obs.counter "transport.bytes_sent"
let m_frames_recv = Obs.counter "transport.frames_recv"
let m_bytes_recv = Obs.counter "transport.bytes_recv"
let m_rejected = Obs.counter "transport.rejected"
let m_accept_retries = Obs.counter "transport.accept_retries"
let g_inflight = Obs.gauge "transport.inflight"

(* Retry a syscall interrupted by a signal — unless the process is
   shutting down, in which case the signal may be the very reason to
   stop blocking. *)
let rec retry_eintr ?(stop = fun () -> false) (f : unit -> 'a) : 'a =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
    if stop () then failwith "Transport: interrupted by shutdown" else retry_eintr ~stop f

let write_all ?stop (fd : Unix.file_descr) (data : string) : unit =
  let len = String.length data in
  let bytes = Bytes.unsafe_of_string data in
  let rec go off =
    if off < len then begin
      let n = retry_eintr ?stop (fun () -> Unix.write fd bytes off (len - off)) in
      go (off + n)
    end
  in
  go 0

let read_exactly ?stop (fd : Unix.file_descr) (len : int) : string =
  if len = 0 then ""
  else begin
    let chunk_len = min len recv_chunk in
    let chunk = Bytes.create chunk_len in
    let buf = Buffer.create chunk_len in
    let rec go remaining =
      if remaining > 0 then begin
        let n =
          retry_eintr ?stop (fun () -> Unix.read fd chunk 0 (min remaining chunk_len))
        in
        if n = 0 then failwith "Transport.read_exactly: peer closed";
        Buffer.add_subbytes buf chunk 0 n;
        go (remaining - n)
      end
    in
    go len;
    Buffer.contents buf
  end

(* Frame: 4-byte big-endian length, then the payload. *)
let send ?max_frame:(cap = max_frame) ?stop (fd : Unix.file_descr) (msg : string) : unit =
  let len = String.length msg in
  if len > cap then invalid_arg "Transport.send: frame too large";
  let hdr = String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff)) in
  Obs.incr m_frames_sent;
  Obs.add m_bytes_sent (4 + len);
  write_all ?stop fd (hdr ^ msg)

let recv ?max_frame:(cap = max_frame) ?stop (fd : Unix.file_descr) : string =
  let hdr = read_exactly ?stop fd 4 in
  let len = ref 0 in
  String.iter (fun c -> len := (!len lsl 8) lor Char.code c) hdr;
  if !len > cap then
    failwith (Printf.sprintf "Transport.recv: %d-byte frame exceeds the %d-byte cap" !len cap);
  Obs.incr m_frames_recv;
  Obs.add m_bytes_recv (4 + !len);
  read_exactly ?stop fd !len

(* One client request/response exchange. *)
let call_x ?max_frame ?trace (fd : Unix.file_descr) (req : Protocol.request) :
    Protocol.response * Protocol.explain option =
  send ?max_frame fd (Protocol.encode_request ?trace req);
  Protocol.decode_response_x (recv ?max_frame fd)

let call ?max_frame ?trace (fd : Unix.file_descr) (req : Protocol.request) : Protocol.response =
  fst (call_x ?max_frame ?trace fd req)

(* Serve one connection until the peer closes (or a deadline fires:
   SO_RCVTIMEO surfaces here as EAGAIN, ending the connection without
   touching any other). Send-side failures — EPIPE from a peer gone
   mid-reply, a send deadline — end this connection the same way
   instead of escaping to the accept loop. [after_request] runs once
   per handled request — the server binary hooks periodic metric dumps
   here. The [handler] is any raw-frame function, such as
   [Server.handle_encoded state]. *)
let serve_connection ?(after_request = fun () -> ()) ?max_frame ?stop
    (handler : string -> string) (fd : Unix.file_descr) : unit =
  let rec loop () =
    match recv ?max_frame ?stop fd with
    | raw ->
      (match send ?stop fd (handler raw) with
       | () ->
         after_request ();
         loop ()
       | exception (Failure _ | Unix.Unix_error _) -> ())
    | exception (Failure _ | End_of_file | Unix.Unix_error _) -> ()
  in
  loop ()

let peer_name = function
  | Unix.ADDR_INET (addr, port) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX path -> path

let listen_and_serve ?after_request ?(workers = 0) ?(max_conns = 64)
    ?request_timeout_ms ?(max_frame = default_server_max_frame)
    ?(stop = fun () -> false) ~(port : int) (handler : string -> string) : unit =
  (* A peer that disappears mid-reply must surface as EPIPE on the
     write, handled per-connection — not as a SIGPIPE killing the whole
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pool = Pool.create ~name:"transport" ~workers () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  (* In-flight bookkeeping. [conns] lets the drain path unblock reads
     that are still waiting on slow peers; closing happens exactly once,
     under the registry lock, so a drained fd can never be reused by a
     fresh accept while a handler still holds it. *)
  let inflight = Atomic.make 0 in
  let conns_lock = Mutex.create () in
  let conns : (Unix.file_descr, unit) Hashtbl.t = Hashtbl.create 16 in
  let register fd =
    Mutex.lock conns_lock;
    Hashtbl.replace conns fd ();
    Mutex.unlock conns_lock
  in
  let close_conn fd =
    Mutex.lock conns_lock;
    if Hashtbl.mem conns fd then begin
      Hashtbl.remove conns fd;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end;
    Mutex.unlock conns_lock
  in
  let shutdown_receives () =
    Mutex.lock conns_lock;
    Hashtbl.iter
      (fun fd () -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock conns_lock
  in
  let set_deadlines fd =
    match request_timeout_ms with
    | Some t when t > 0 ->
      let secs = float_of_int t /. 1000. in
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO secs
       with Unix.Unix_error _ | Invalid_argument _ -> ())
    | _ -> ()
  in
  let handle_conn conn peer =
    Obs.incr m_conns;
    Obs.gauge_incr g_inflight;
    Log.info "conn.accepted" ~fields:[ Log.str "peer" peer ];
    Fun.protect
      ~finally:(fun () ->
        ignore (Atomic.fetch_and_add inflight (-1));
        Obs.gauge_decr g_inflight;
        close_conn conn;
        Log.info "conn.closed" ~fields:[ Log.str "peer" peer ])
      (fun () ->
        try serve_connection ?after_request ~max_frame ~stop handler conn with _ -> ())
  in
  (* Over the limit: answer with a structured Busy failure (framed at
     the current protocol version — the request is unread, so the
     peer's version is unknown) and close. A short send deadline keeps
     a hostile peer from parking the accept loop here. *)
  let shed conn peer =
    Obs.incr m_rejected;
    Log.warn "conn.rejected"
      ~fields:[ Log.str "peer" peer; Log.int "max_conns" max_conns ];
    (try
       (try Unix.setsockopt_float conn Unix.SO_SNDTIMEO 1.0
        with Unix.Unix_error _ | Invalid_argument _ -> ());
       send conn
         (Protocol.encode_response
            (Protocol.failed Protocol.Busy "server at its %d-connection limit" max_conns))
     with Failure _ | Unix.Unix_error _ -> ());
    try Unix.close conn with Unix.Unix_error _ -> ()
  in
  (* Accept with a short select tick so a stop request never waits on
     the next client, and with retries for the transient accept
     errors that would otherwise kill the server: EINTR/ECONNABORTED
     are immediate retries, fd or buffer exhaustion backs off briefly
     to let in-flight connections release resources. *)
  let rec accept_loop () =
    if not (stop ()) then begin
      match retry_eintr ~stop (fun () -> Unix.select [ sock ] [] [] 0.25) with
      | exception Failure _ -> ()
      | [], _, _ -> accept_loop ()
      | _ :: _, _, _ ->
        (match Unix.accept sock with
         | conn, peer_addr ->
           let peer = peer_name peer_addr in
           if Atomic.fetch_and_add inflight 1 >= max_conns then begin
             ignore (Atomic.fetch_and_add inflight (-1));
             shed conn peer
           end
           else begin
             register conn;
             set_deadlines conn;
             if Pool.workers pool = 0 then handle_conn conn peer
             else ignore (Pool.submit pool (fun () -> handle_conn conn peer))
           end;
           accept_loop ()
         | exception Unix.Unix_error ((EINTR | ECONNABORTED | EAGAIN | EWOULDBLOCK) as e, _, _)
           ->
           Obs.incr m_accept_retries;
           Log.debug "accept.retry" ~fields:[ Log.str "error" (Unix.error_message e) ];
           accept_loop ()
         | exception Unix.Unix_error ((EMFILE | ENFILE | ENOBUFS | ENOMEM) as e, _, _) ->
           Obs.incr m_accept_retries;
           Log.warn "accept.retry"
             ~fields:[ Log.str "error" (Unix.error_message e); Log.str "action" "backoff" ];
           Unix.sleepf 0.05;
           accept_loop ())
    end
  in
  accept_loop ();
  (* Drain: no new connections, unblock reads parked on slow peers
     (their handlers see EOF and finish the response in flight), then
     wait for every handler task to complete. *)
  (try Unix.close sock with Unix.Unix_error _ -> ());
  shutdown_receives ();
  Pool.shutdown pool;
  Log.info "server.drained" ~fields:[ Log.int "rejected" (Obs.value m_rejected) ]

let resolve_host (host : string) : Unix.inet_addr =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
      failwith (Printf.sprintf "Transport.connect: cannot resolve host %S" host)
    | h -> h.Unix.h_addr_list.(0))

let connect ?host ~(port : int) () : Unix.file_descr =
  let addr = match host with None -> Unix.inet_addr_loopback | Some h -> resolve_host h in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match Unix.connect sock (Unix.ADDR_INET (addr, port)) with
   | () -> ()
   | exception e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  sock
