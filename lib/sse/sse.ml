(* Searchable symmetric encryption: the Π_bas scheme of Cash et al.
   (NDSS'14), adaptively secure in the random-oracle model.

   The encrypted index is a flat dictionary. For keyword [w] with matching
   document ids [id_0, id_1, ...], the client derives two sub-keys
   (K1, K2) = PRF_K(w) and stores, for each counter c:

       label  = PRF_{K1}(c)
       value  = id_c XOR PRF_{K2}(c)

   A search token for [w] is (K1, K2); the server walks counters until a
   label misses. Leakage is the standard SSE trace: the search pattern
   (token repetition) and the access pattern (matching ids), which is
   exactly the leakage the SAGMA proof (§4.2) forwards to the simulator.

   SAGMA uses this index twice: for bucket identifiers ("col:bucket") and
   for filtering keywords ("col=value"). *)

module Prf = Sagma_crypto.Prf
module Drbg = Sagma_crypto.Drbg

type key = Prf.key

(* Both maps are persistent, so an append shares all but O(log n) of
   its input and every older index value stays valid. *)
module Labels = Map.Make (String)

(* [next] maps a token's label key to its keyword's next posting
   counter. Only {!add} fills it and it never goes on the wire. *)
type index = {
  dict : string Labels.t;  (* label -> masked id *)
  next : int Labels.t;
}

(* Label order is the canonical wire order. *)
let entries (index : index) : (string * string) list = Labels.bindings index.dict

let of_entries (entries : (string * string) list) : index =
  { dict = Labels.of_list entries; next = Labels.empty }

type token = {
  t_label : Prf.key;  (* K1: label derivation *)
  t_mask : Prf.key;   (* K2: id masking *)
}

let label_size = 16
let id_size = 8

let gen (drbg : Drbg.t) : key = Prf.gen_key drbg

let token (k : key) (w : string) : token =
  { t_label = Prf.derive k ~domain:("sse-label:" ^ w);
    t_mask = Prf.derive k ~domain:("sse-mask:" ^ w) }

(* The token is the per-keyword key pair; its serialization identifies the
   keyword to the server across queries (the search pattern). *)
let token_id (t : token) : string = Sagma_crypto.Encoding.to_hex (String.sub t.t_label 0 8)

let encode_id (id : int) : string =
  String.init id_size (fun i -> Char.chr ((id lsr (8 * (id_size - 1 - i))) land 0xff))

let decode_id (s : string) : int =
  let v = ref 0 in
  String.iter (fun c -> v := (!v lsl 8) lor Char.code c) s;
  !v

let label (t : token) (counter : int) : string =
  Prf.eval_trunc t.t_label (string_of_int counter) ~len:label_size

let mask (t : token) (counter : int) : string =
  Prf.eval_trunc t.t_mask (string_of_int counter) ~len:id_size

let entry (t : token) (counter : int) (id : int) : string * string =
  (label t counter, Sagma_crypto.Encoding.xor (encode_id id) (mask t counter))

(* [first_absent present] is the least counter [c] with [present c]
   false, for a [present] that holds for exactly the counters below some
   bound. It gallops over counters 0, 1, 3, 7, …, 2^k − 1 until one is
   absent, then bisects the last gap: about 2⌈log₂ c⌉ + 2 probes. *)
let first_absent (present : int -> bool) : int =
  (* Every counter below [lo] is present and [hi] is absent. *)
  let rec bisect lo hi =
    if lo = hi then lo
    else
      let mid = lo + ((hi - lo) / 2) in
      if present mid then bisect (mid + 1) hi else bisect lo mid
  in
  let rec gallop lo probe =
    if present probe then gallop (probe + 1) ((2 * probe) + 1) else bisect lo probe
  in
  gallop 0 0

let m_searches = Sagma_obs.Metrics.counter "sse.searches"
let m_postings = Sagma_obs.Metrics.counter "sse.postings_scanned"

(* Server-side search: walk counters until a label misses. *)
let search (index : index) (t : token) : int list =
  Sagma_obs.Metrics.incr m_searches;
  let rec go counter acc =
    match Labels.find_opt (label t counter) index.dict with
    | None -> List.rev acc
    | Some masked ->
      Sagma_obs.Metrics.incr m_postings;
      go (counter + 1) (decode_id (Sagma_crypto.Encoding.xor masked (mask t counter)) :: acc)
  in
  go 0 []

let size (index : index) = Labels.cardinal index.dict

(* [add index tokens id] posts row [id] under each token at its
   keyword's next counter (the paper's EncRow-based updates). Tokens
   suffice, so a server can apply a remote append itself, trading
   forward privacy for update support like most token-revealing dynamic
   SSE schemes. A cold token's counter is found by {!first_absent} over
   the old index's labels; a repeated token gets consecutive counters.
   Non-destructive: both maps are persistent. *)
let add (index : index) (tokens : token list) (id : int) : index =
  List.fold_left
    (fun { dict; next } t ->
      let counter =
        match Labels.find_opt t.t_label next with
        | Some c -> c
        | None -> first_absent (fun c -> Labels.mem (label t c) dict)
      in
      let l, v = entry t counter id in
      if Labels.mem l dict then failwith "Sse.add: label collision";
      { dict = Labels.add l v dict; next = Labels.add t.t_label (counter + 1) next })
    index tokens

(* [build k assoc] creates the encrypted index for an association list of
   keyword -> matching ids, one {!add} per posting. *)
let build (k : key) (assoc : (string * int list) list) : index =
  List.fold_left
    (fun index (w, ids) ->
      let t = token k w in
      List.fold_left (fun index id -> add index [ t ] id) index ids)
    (of_entries []) assoc

(* --- simulator ----------------------------------------------------------

   For the security experiment (§4.2): given only the index size and, per
   query, the access pattern, produce an index and tokens with the same
   distribution as the real ones. Labels and masked values are uniformly
   random in the real scheme (PRF outputs on fresh points), so the
   simulator samples them uniformly and programs consistency. *)

let simulate_index (drbg : Drbg.t) ~(entries : int) : index =
  of_entries
    (List.init entries (fun _ ->
         let label = Drbg.bytes drbg label_size in
         (label, Drbg.bytes drbg id_size)))

let simulate_token (drbg : Drbg.t) : token =
  { t_label = Drbg.bytes drbg Prf.key_size; t_mask = Drbg.bytes drbg Prf.key_size }
