(** The key holder's side of a remote query (§1, Algorithms 4–6): the
    client makes the token, the server aggregates, and the client
    decrypts. Every remote query in the CLI, the examples and the tests
    runs through {!query}; a caller that holds the encrypted table
    itself uses [Sagma.Scheme.query] instead.

    This is the one place where a reply meets the key, so the checks
    that need both belong here: the client's completeness check on
    decrypted counts (ROADMAP, fleet reads on a committed snapshot) and
    a keyed decode of the aggregates (ROADMAP, level-2 ciphertexts
    kept in G_T). *)

val call :
  ?trace:Protocol.trace_ctx ->
  Unix.file_descr ->
  Protocol.request ->
  Protocol.response * Sagma_obs.Trace.rtrace option
(** One exchange ({!Transport.call_x}): the reply and its EXPLAIN
    trailer.
    @raise Failure ["<code>: <message>"] on a [Failed] reply. *)

val query :
  ?explain:bool ->
  Unix.file_descr ->
  Sagma.Scheme.client ->
  name:string ->
  Sagma_db.Query.t ->
  Sagma.Scheme.result_row list * Sagma_obs.Trace.rtrace option
(** Token, then [List_tables] for table [name]'s row count (the
    decryption bound), then [Aggregate], then decrypt. [~explain:true]
    sets the sampling flag on the Aggregate so the server traces it;
    the trailer comes back whenever the server attached one.
    @raise Failure ["no such remote table ..."] when the server lists
    no table [name], ["unexpected response"] on any reply of the wrong
    kind, and as {!call} on a [Failed] reply. *)
