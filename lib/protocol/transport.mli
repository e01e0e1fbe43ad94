(** Length-prefixed message framing over file descriptors, plus the TCP
    serving loops for the sagma_server binary and the CLI's remote
    commands.

    All blocking reads and writes retry [EINTR] (unless [?stop] says the
    process is shutting down), and frame bodies are read in bounded
    chunks so memory committed to a connection tracks bytes actually
    received, never the attacker-controlled length header alone. *)

val max_frame : int
(** Hard protocol-level frame cap (1 GiB) — the largest [?max_frame]
    that makes sense anywhere, and the client-side default. *)

val default_server_max_frame : int
(** Server-side default frame cap (64 MiB): the length header is
    peer-controlled, so servers only honor larger frames when
    explicitly configured to. *)

val send : ?max_frame:int -> ?stop:(unit -> bool) -> Unix.file_descr -> string -> unit
(** One frame: 4-byte big-endian length, then the payload.
    @raise Invalid_argument if the message exceeds [?max_frame]
    (default {!max_frame}). *)

val recv : ?max_frame:int -> ?stop:(unit -> bool) -> Unix.file_descr -> string
(** @raise Failure when the peer closes mid-frame, the claimed length
    exceeds [?max_frame] (default {!max_frame}; checked before reading
    or buffering any payload), or [?stop] turns true during an
    interrupted read. *)

val call :
  ?max_frame:int -> ?trace:Protocol.trace_ctx -> Unix.file_descr -> Protocol.request ->
  Protocol.response
(** One request/response exchange. [?trace] attaches a trace context
    to the request (id and/or sampling flag). *)

val call_x :
  ?max_frame:int -> ?trace:Protocol.trace_ctx -> Unix.file_descr -> Protocol.request ->
  Protocol.response * Protocol.explain option
(** Like {!call} but also returns the EXPLAIN trailer, present when
    the server traced the request. *)

val serve_connection :
  ?after_request:(unit -> unit) ->
  ?max_frame:int ->
  ?stop:(unit -> bool) ->
  (string -> string) ->
  Unix.file_descr ->
  unit
(** Serve one connection until the peer closes, a read/write deadline
    set on the fd fires, or a send fails (e.g. [EPIPE] from a peer gone
    mid-reply) — never letting an I/O error escape. [after_request]
    runs after each handled request (e.g. to dump metrics
    periodically). The handler maps one raw request frame to one raw
    response frame — [Server.handle_encoded state], whatever the node's
    role. *)

val listen_and_serve :
  ?after_request:(unit -> unit) ->
  ?workers:int ->
  ?max_conns:int ->
  ?request_timeout_ms:int ->
  ?max_frame:int ->
  ?stop:(unit -> bool) ->
  port:int ->
  (string -> string) ->
  unit
(** Accept loop on localhost, serving the given raw-frame handler (see
    {!serve_connection}). With [?workers = 0] (the default)
    connections are served sequentially on the calling domain; with
    [?workers = n > 0] each connection becomes a task on an [n]-domain
    pool, so slow clients no longer block fast ones. Ignores SIGPIPE
    process-wide and retries transient accept errors
    ([EINTR]/[ECONNABORTED]; short backoff on fd exhaustion).

    [?max_conns] (default 64) caps in-flight connections: excess
    arrivals get a current-version [Failed Busy] response and are
    closed, counted by [transport.rejected]. [?request_timeout_ms] sets
    SO_RCVTIMEO/SO_SNDTIMEO on every accepted fd — a connection idle or
    stalled past the deadline is dropped without touching the others
    (0 disables). [?max_frame] defaults to
    {!default_server_max_frame}.

    [?stop] is polled a few times per second; once true the loop stops
    accepting, unblocks reads parked on slow peers, drains in-flight
    handlers, and returns — the graceful-shutdown path for
    SIGINT/SIGTERM. Gauges/counters: [transport.inflight],
    [transport.rejected], [transport.accept_retries], plus the pool's
    [pool.tasks]/[pool.queue_depth]. *)

val connect : ?host:string -> port:int -> unit -> Unix.file_descr
(** TCP connection to [host:port] (default loopback). [?host] accepts a
    dotted quad or a resolvable name; @raise Failure when it resolves
    to nothing. *)
