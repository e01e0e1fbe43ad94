(* The leakage function L of §4.2 and the simulator of Theorem 1,
   executable.

   L(T, (V₁,Q₁), …, (Vᵢ,Qᵢ)) = ((V₁,Q₁), …, (Vᵢ,Qᵢ), τᵢ): the queried
   attribute *identifiers* plus the SSE trace — per keyword query its
   search pattern (token repetition) and access pattern (matching row
   ids). Table dimensions, the bucket size and the monomial count are
   public parameters.

   The simulator consumes exactly this and emits an encrypted database and
   grouping tokens; the accompanying test checks that (a) the simulated
   transcript is structurally identical to the real one and (b) replaying
   the simulated tokens against the simulated index reproduces the leaked
   access patterns — the operational content of adaptive L-security. *)

module Drbg = Sagma_crypto.Drbg
module Sse = Sagma_sse.Sse
module Bgn = Sagma_bgn.Bgn

type sse_observation = {
  token_tag : string;   (* search pattern: equal tags = same keyword *)
  matches : int list;   (* access pattern *)
}

type query_leakage = {
  value_column : int option;   (* V: queried value-column identifier *)
  group_columns : int array;   (* Q: queried group-column identifiers *)
  observations : sse_observation list;  (* one per bucket token + filter *)
}

type t = {
  num_rows : int;
  num_monomials : int;
  num_value_columns : int;
  num_channels : int;
  index_size : int;
  queries : query_leakage list;
}

(* Every index access one query token makes, replayed once against the
   real index — what a persistent honest-but-curious server records:
   the bucket observations tagged with their audit probe kind, the
   filter observations, and the range observations grouped per clause.
   A [Per_attribute] token's bucket observations also come grouped per
   queried column (the paired-row bound intersects the columns); the
   other sources leave [per_column] empty. *)
type observed = {
  buckets : (string * sse_observation) list;
  per_column : sse_observation list list;
  filters : sse_observation list;
  ranges : sse_observation list list;
}

let observe (et : Scheme.enc_table) (tok : Scheme.token) : observed =
  let obs t = { token_tag = Sse.token_id t; matches = Sse.search et.Scheme.index t } in
  let per_column, buckets =
    match tok.Scheme.source with
    | Scheme.Per_attribute_tokens per_column ->
      let per_column =
        Array.to_list
          (Array.map (fun per_bucket -> Array.to_list (Array.map obs per_bucket)) per_column)
      in
      (per_column, List.map (fun o -> ("sse.bucket", o)) (List.concat per_column))
    | Scheme.Joint_tokens entries ->
      ([], Array.to_list (Array.map (fun (_, t) -> ("sse.bucket", obs t)) entries))
    | Scheme.Oxt_tokens entries ->
      (* OXT leakage per conjunction: the matching rows; the tag is the
         s-term stag's identity. *)
      let oxt = Option.get et.Scheme.oxt_index in
      let params = Scheme.oxt_params () in
      ( [],
        Array.to_list
          (Array.map
             (fun (_, st, xtoks) ->
               ( "oxt.bucket",
                 { token_tag = Scheme.oxt_stag_tag st;
                   matches = List.sort compare (Sagma_sse.Oxt.search params oxt st xtoks) } ))
             entries) )
  in
  { buckets; per_column; filters = List.map obs tok.Scheme.filter_tokens;
    ranges = List.map (List.map obs) tok.Scheme.range_token_groups }

(* The leakage one query token reveals. *)
let of_query (et : Scheme.enc_table) (tok : Scheme.token) : query_leakage =
  let o = observe et tok in
  { value_column = tok.Scheme.value_column;
    group_columns = tok.Scheme.group_columns;
    observations = List.map snd o.buckets @ o.filters @ List.concat o.ranges }

let profile (et : Scheme.enc_table) (tokens : Scheme.token list) : t =
  let pp = et.Scheme.pp in
  { num_rows = Array.length et.Scheme.rows;
    num_monomials = Monomials.count pp.Scheme.monomials;
    num_value_columns = Config.num_value_columns pp.Scheme.config;
    num_channels = Sagma_bgn.Crt_channels.channels pp.Scheme.channels;
    index_size = Sse.size et.Scheme.index;
    queries = List.map (of_query et) tokens }

(* --- leakage equality -------------------------------------------------------

   Token tags are PRF outputs, so two leakage profiles taken under
   different keys (or against a simulator) never share literal tags even
   when they describe the same view. What is meaningful is the *search
   pattern* — which observations repeat a tag — so equality compares
   profiles after renaming each distinct tag to its first-occurrence
   index. *)

let canonical (leak : t) : t =
  let classes : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let class_of tag =
    match Hashtbl.find_opt classes tag with
    | Some c -> c
    | None ->
      let c = Printf.sprintf "#%d" (Hashtbl.length classes) in
      Hashtbl.add classes tag c;
      c
  in
  { leak with
    queries =
      List.map
        (fun q ->
          { q with
            observations =
              List.map
                (fun o -> { o with token_tag = class_of o.token_tag })
                q.observations })
        leak.queries }

let equal (a : t) (b : t) : bool = canonical a = canonical b

(* --- leakage audit glue ----------------------------------------------------

   [Scheme.aggregate] records every index access it performs as an
   Audit probe; these functions derive, from the declared leakage alone,
   the exact probe set an honest server may produce — same kinds, same
   tags, same posting lists as the instrumented call sites — plus a
   tight bound on the rows entering the pairing loop. Anything beyond
   the prediction (an extra bucket probed, a wider posting list, more
   rows paired) is observable behavior L does not license. *)

module Audit = Sagma_obs.Audit
module Int_set = Set.Make (Int)

(* The exact probe set (kind, tag, posting list) an honest execution of
   Algorithm 5 may produce for this token, plus a tight bound on the rows
   entering the pairing loop. *)
let audit_prediction (et : Scheme.enc_table) (tok : Scheme.token) :
    (string * string * int list) list * int =
  let o = observe et tok in
  let probe kind ob = (kind, ob.token_tag, ob.matches) in
  let rows obs = Int_set.of_list obs.matches in
  (* Paired-row bound, mirroring the WHERE composition of Algorithm 5:
     equality clauses intersect, each range clause contributes the union
     of its cover, and a row feeds the pairing loop once per joint
     bucket containing it. *)
  let union obs = List.fold_left (fun acc ob -> Int_set.union acc (rows ob)) Int_set.empty obs in
  let filtered =
    match List.map rows o.filters @ List.map union o.ranges with
    | [] -> None
    | s0 :: rest -> Some (List.fold_left Int_set.inter s0 rest)
  in
  let keep r = match filtered with None -> true | Some s -> Int_set.mem r s in
  let bound =
    match tok.Scheme.source with
    | Scheme.Per_attribute_tokens _ -> (
      (* A row pairs iff, in every queried column, it lies in some
         queried bucket — i.e. the intersection of the per-column match
         unions (each row inhabits exactly one bucket per column). *)
      match List.map (fun obs -> Int_set.filter keep (union obs)) o.per_column with
      | [] -> 0
      | s0 :: rest -> Int_set.cardinal (List.fold_left Int_set.inter s0 rest))
    | Scheme.Joint_tokens _ | Scheme.Oxt_tokens _ ->
      (* Joint buckets are read directly: each entry pairs its own
         (filtered) matches. *)
      List.fold_left
        (fun acc (_, ob) -> acc + List.length (List.filter keep ob.matches))
        0 o.buckets
  in
  ( List.map (fun (kind, ob) -> probe kind ob) o.buckets
    @ List.map (probe "sse.filter") o.filters
    @ List.concat_map (List.map (probe "sse.range")) o.ranges,
    bound )

let audit_check (et : Scheme.enc_table) (tok : Scheme.token) (trace : Audit.trace) :
    Audit.verdict =
  let predicted, bound = audit_prediction et tok in
  Audit.check ~max_rows_paired:bound ~predicted trace

(* --- simulator ------------------------------------------------------------ *)

type simulated = {
  sim_rows : Scheme.enc_row array;
  sim_index : Sse.index;
  sim_tokens : (string * Sse.token) list;  (* token per distinct tag *)
}

(* Build an encrypted database + tokens from the leakage alone. Ciphertext
   components are fresh encryptions of 0 under the public key (semantic
   security makes them indistinguishable from the real contents); the SSE
   dictionary is programmed so each simulated token's counter walk hits
   exactly the leaked access pattern, then padded with random entries to
   the leaked index size. *)
let simulate (pk : Bgn.public_key) (leak : t) (drbg : Drbg.t) : simulated =
  let zero () = Bgn.enc1_int pk drbg 0 in
  let sim_rows =
    Array.init leak.num_rows (fun _ ->
        { Scheme.values =
            Array.init leak.num_value_columns (fun _ ->
                Array.init leak.num_channels (fun _ -> zero ()));
          count_ct = zero ();
          monomial_cts = Array.init leak.num_monomials (fun _ -> zero ());
          pre_values =
            Array.init leak.num_value_columns (fun _ -> Array.make leak.num_channels None);
          pre_count = None })
  in
  (* One simulated token per distinct search-pattern tag; program its
     postings from the (first-seen) access pattern. *)
  let dict : (string, string) Hashtbl.t = Hashtbl.create (2 * leak.index_size) in
  let tokens : (string, Sse.token) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun q ->
      List.iter
        (fun obs ->
          if not (Hashtbl.mem tokens obs.token_tag) then begin
            let tok = Sse.simulate_token drbg in
            Hashtbl.add tokens obs.token_tag tok;
            List.iteri
              (fun counter id ->
                let label, value = Sse.entry tok counter id in
                Hashtbl.replace dict label value)
              obs.matches
          end)
        q.observations)
    leak.queries;
  (* Pad to the public index size with random garbage entries. *)
  while Hashtbl.length dict < leak.index_size do
    Hashtbl.replace dict (Drbg.bytes drbg Sse.label_size) (Drbg.bytes drbg Sse.id_size)
  done;
  let sim_index = Sse.of_entries (List.of_seq (Hashtbl.to_seq dict)) in
  { sim_rows;
    sim_index;
    sim_tokens = Hashtbl.fold (fun tag tok acc -> (tag, tok) :: acc) tokens [] }

(* Deterministic byte serialization of a simulated transcript: index
   entries (already in label order) and tokens are emitted in sorted
   order so the bytes depend only on the transcript's content, never on
   hash-table internals — which makes "same DRBG seed ⇒ byte-identical
   simulation" a testable (and pinned) property. *)
let transcript_bytes (s : simulated) : string =
  let module W = Sagma_wire.Wire in
  let sink = W.sink () in
  W.put_array sink Serialize.put_enc_row s.sim_rows;
  W.put_list sink
    (fun k (label, v) ->
      W.put_bytes k label;
      W.put_bytes k v)
    (Sse.entries s.sim_index);
  W.put_list sink
    (fun k (tag, tok) ->
      W.put_bytes k tag;
      Serialize.put_sse_token k tok)
    (List.sort compare s.sim_tokens);
  W.contents sink
