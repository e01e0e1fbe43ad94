(* OXT — Oblivious Cross-Tags (Cash, Jarecki, Jutla, Krawczyk, Roşu,
   Steiner; CRYPTO'13): searchable symmetric encryption for conjunctive
   queries w₁ ∧ w₂ ∧ … ∧ wₙ. This is reference [6] of the SAGMA paper,
   cited in §3.2/§3.4 as the way to "determine joint bucket membership
   without leaking the bucket membership of individual attributes".

   Data structures:
   - TSet: for each keyword w and matching id (counter c), an entry
       label  = PRF-derived dictionary key (as in Π_bas)
       e      = id masked with a per-entry PRF pad
       y      = xind · z⁻¹ mod q, with xind = Fp(K_I, id) and
                z = Fp(K_Z, w‖c)
   - XSet: { (Fp(K_X, w) · xind) · G } — "cross tags", one per (w, id)
     pair, as points of a prime-order curve subgroup.

   Search is two-round: the client sends the s-term's stag, learns the
   match count, then sends per-counter x-tokens
       xtoken[c][i] = (z_c · Fp(K_X, wᵢ)) · G
   for the remaining terms. The server checks y_c · xtoken[c][i] ∈ XSet:
   y·(z·Fx)·G = xind·Fx·G, so membership holds exactly when id also
   matches wᵢ. The server learns the s-term's result count and which of
   its entries satisfy the conjunction — never the other keywords'
   individual posting lists.

   The group is the prime-order subgroup from {!Sagma_pairing} (no
   pairing evaluation needed, only scalar multiplication). *)

module Z = Sagma_bigint.Bigint
module Curve = Sagma_pairing.Curve
module Pairing = Sagma_pairing.Pairing
module Prf = Sagma_crypto.Prf
module Drbg = Sagma_crypto.Drbg
module Encoding = Sagma_crypto.Encoding

type params = {
  group : Pairing.group;  (* prime order n *)
  base : Curve.point;     (* generator G *)
}

(* A fixed 127-bit prime group order: parameters are scheme-wide and
   carry no secrets. *)
let default_order = Z.of_string "170141183460469231731687303715884105727"

let make_params () : params =
  let group = Pairing.make_group default_order in
  let seed = Drbg.create "oxt-generator" in
  { group; base = Pairing.random_order_n_point group (Drbg.rng seed) }

type key = {
  k_t : Prf.key;  (* TSet label/mask derivations *)
  k_x : Prf.key;  (* cross-tag exponents per keyword *)
  k_i : Prf.key;  (* per-id blinding exponent xind *)
  k_z : Prf.key;  (* per-(keyword, counter) exponent z *)
}

let gen (drbg : Drbg.t) : key =
  let master = Prf.gen_key drbg in
  { k_t = Prf.derive master ~domain:"oxt-t";
    k_x = Prf.derive master ~domain:"oxt-x";
    k_i = Prf.derive master ~domain:"oxt-i";
    k_z = Prf.derive master ~domain:"oxt-z" }

(* PRF into Z_n^* (rejecting 0; bias negligible for ~127-bit n). *)
let prf_exponent (params : params) (k : Prf.key) (input : string) : Z.t =
  let n = params.group.Pairing.n in
  let rec go i =
    let raw = Prf.eval k (Printf.sprintf "%s#%d" input i) in
    let v = Z.erem (Z.of_bytes_be raw) n in
    if Z.is_zero v then go (i + 1) else v
  in
  go 0

type tset_entry = {
  e : string;  (* masked id *)
  y : Z.t;     (* xind · z⁻¹ mod n *)
}

module Tset = Map.Make (String)
module Xset = Set.Make (String)

(* Persistent, so an append shares structure with its input. *)
type index = {
  tset : tset_entry Tset.t;  (* label -> entry *)
  xset : Xset.t;             (* serialized cross tags *)
}

(* Ascending label and tag order is the canonical wire order. *)
let entries (index : index) : (string * tset_entry) list * string list =
  (Tset.bindings index.tset, Xset.elements index.xset)

let of_entries ((tset, xset) : (string * tset_entry) list * string list) : index =
  { tset = Tset.of_list tset; xset = Xset.of_list xset }

let label_size = 16
let id_size = 8

let tset_label (k : key) (w : string) (c : int) : string =
  Prf.eval_trunc (Prf.derive k.k_t ~domain:("label:" ^ w)) (string_of_int c) ~len:label_size

let tset_mask (k : key) (w : string) (c : int) : string =
  Prf.eval_trunc (Prf.derive k.k_t ~domain:("mask:" ^ w)) (string_of_int c) ~len:id_size

let xind (params : params) (k : key) (id : int) : Z.t =
  prf_exponent params k.k_i (string_of_int id)

let keyword_exponent (params : params) (k : key) (w : string) : Z.t =
  prf_exponent params k.k_x w

(* [post params k index w c id] adds the [c]-th posting of [w]: one
   TSet entry and its cross tag. *)
let post (params : params) (k : key) (index : index) (w : string) (c : int) (id : int) : index =
  let n = params.group.Pairing.n in
  let label = tset_label k w c in
  if Tset.mem label index.tset then failwith "Oxt: label collision";
  let xi = xind params k id in
  let z = prf_exponent params k.k_z (Printf.sprintf "%s|%d" w c) in
  let e = Encoding.xor (Sse.encode_id id) (tset_mask k w c) in
  let fx = keyword_exponent params k w in
  let xtag = Curve.mul params.group.Pairing.curve (Z.mulm fx xi n) params.base in
  { tset = Tset.add label { e; y = Z.mulm xi (Z.invm_exn z n) n } index.tset;
    xset = Xset.add (Curve.serialize xtag) index.xset }

(* [build params k assoc] creates the encrypted structures from keyword →
   matching ids. *)
let build (params : params) (k : key) (assoc : (string * int list) list) : index =
  List.fold_left
    (fun index (w, ids) ->
      fst
        (List.fold_left
           (fun (index, c) id -> (post params k index w c id, c + 1))
           (index, 0) ids))
    { tset = Tset.empty; xset = Xset.empty }
    assoc

(* --- tokens ------------------------------------------------------------------ *)

type stag = { s_keyword_key : Prf.key; s_mask_key : Prf.key }
(* Keys letting the server walk (and unmask ids of) the s-term's TSet
   entries — same leakage as a Π_bas search on the s-term. *)

let stag (k : key) (w : string) : stag =
  { s_keyword_key = Prf.derive k.k_t ~domain:("label:" ^ w);
    s_mask_key = Prf.derive k.k_t ~domain:("mask:" ^ w) }

(* Round 1 (server): how many entries the s-term has. *)
let stag_count (index : index) (st : stag) : int =
  Sse.first_absent (fun c ->
      Tset.mem (Prf.eval_trunc st.s_keyword_key (string_of_int c) ~len:label_size) index.tset)

(* [add params k index w id] appends [id] to [w]'s postings at its next
   counter. Non-destructive, like Π_bas's add. *)
let add (params : params) (k : key) (index : index) (w : string) (id : int) : index =
  post params k index w (stag_count index (stag k w)) id

(* Round 2 (client): x-tokens for the other terms, one row per counter. *)
let xtokens (params : params) (k : key) ~(s_term : string) ~(x_terms : string list)
    ~(count : int) : Curve.point array array =
  let n = params.group.Pairing.n in
  let curve = params.group.Pairing.curve in
  let fxs = List.map (keyword_exponent params k) x_terms in
  Array.init count (fun c ->
      let z = prf_exponent params k.k_z (Printf.sprintf "%s|%d" s_term c) in
      Array.of_list
        (List.map (fun fx -> Curve.mul curve (Z.mulm z fx n) params.base) fxs))

let m_searches = Sagma_obs.Metrics.counter "oxt.searches"
let m_postings = Sagma_obs.Metrics.counter "oxt.postings_scanned"

(* Round 2 (server): filter the s-term's entries by cross-tag membership
   and return the unmasked matching ids. *)
let search (params : params) (index : index) (st : stag)
    (xtoks : Curve.point array array) : int list =
  Sagma_obs.Metrics.incr m_searches;
  let curve = params.group.Pairing.curve in
  let out = ref [] in
  Array.iteri
    (fun c per_term ->
      let label = Prf.eval_trunc st.s_keyword_key (string_of_int c) ~len:label_size in
      match Tset.find_opt label index.tset with
      | None -> ()
      | Some entry ->
        Sagma_obs.Metrics.incr m_postings;
        let all_match =
          Array.for_all
            (fun xtok -> Xset.mem (Curve.serialize (Curve.mul curve entry.y xtok)) index.xset)
            per_term
        in
        if all_match then begin
          let mask = Prf.eval_trunc st.s_mask_key (string_of_int c) ~len:id_size in
          out := Sse.decode_id (Encoding.xor entry.e mask) :: !out
        end)
    xtoks;
  List.rev !out

(* One-shot conjunction (both rounds; a real deployment splits them
   across the network). The first term is used as the s-term — callers
   should pass the least-frequent keyword first, as the OXT paper
   prescribes. *)
let conjunction (params : params) (k : key) (index : index) (terms : string list) : int list =
  match terms with
  | [] -> invalid_arg "Oxt.conjunction: empty"
  | [ w ] ->
    (* Single keyword: plain TSet walk. *)
    let st = stag k w in
    let count = stag_count index st in
    search params index st (Array.make count [||])
  | s_term :: x_terms ->
    let st = stag k s_term in
    let count = stag_count index st in
    search params index st (xtokens params k ~s_term ~x_terms ~count)

let tset_size (index : index) : int = Tset.cardinal index.tset
let xset_size (index : index) : int = Xset.cardinal index.xset
