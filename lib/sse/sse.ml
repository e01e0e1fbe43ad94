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

module Counters = Map.Make (String)

type counters = int Counters.t

(* [next] maps a token's label key to its keyword's next posting
   counter. Only {!add} fills it and it never goes on the wire. It is
   persistent, so every older index value keeps its own counters. *)
type index = {
  dict : (string, string) Hashtbl.t;  (* label -> masked id *)
  next : counters;
}

let of_dict (dict : (string, string) Hashtbl.t) : index = { dict; next = Counters.empty }

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

let entry (t : token) (counter : int) (id : int) : string * string =
  let c = string_of_int counter in
  let label = Prf.eval_trunc t.t_label c ~len:label_size in
  let mask = Prf.eval_trunc t.t_mask c ~len:id_size in
  (label, Sagma_crypto.Encoding.xor (encode_id id) mask)

(* [build k assoc] creates the encrypted index for an association list of
   keyword -> matching ids. *)
let build (k : key) (assoc : (string * int list) list) : index =
  let entries = List.fold_left (fun acc (_, ids) -> acc + List.length ids) 0 assoc in
  let dict = Hashtbl.create (2 * entries) in
  List.iter
    (fun (w, ids) ->
      let t = token k w in
      List.iteri
        (fun counter id ->
          let label, value = entry t counter id in
          if Hashtbl.mem dict label then failwith "Sse.build: label collision";
          Hashtbl.add dict label value)
        ids)
    assoc;
  of_dict dict

let m_searches = Sagma_obs.Metrics.counter "sse.searches"
let m_postings = Sagma_obs.Metrics.counter "sse.postings_scanned"

(* Server-side search: walk counters until a label misses. *)
let search (index : index) (t : token) : int list =
  Sagma_obs.Metrics.incr m_searches;
  let rec go counter acc =
    let c = string_of_int counter in
    let label = Prf.eval_trunc t.t_label c ~len:label_size in
    match Hashtbl.find_opt index.dict label with
    | None -> List.rev acc
    | Some masked ->
      Sagma_obs.Metrics.incr m_postings;
      let mask = Prf.eval_trunc t.t_mask c ~len:id_size in
      go (counter + 1) (decode_id (Sagma_crypto.Encoding.xor masked mask) :: acc)
  in
  go 0 []

let size (index : index) = Hashtbl.length index.dict

(* [add index tokens id] posts row [id] under each token at its
   keyword's next counter (the paper's EncRow-based updates). Tokens
   suffice, so a server can apply a remote append itself, trading
   forward privacy for update support like most token-revealing dynamic
   SSE schemes. A cold token's counter costs one search of the old
   index; a repeated token gets consecutive counters. Non-destructive:
   the dictionary is copied once per call. *)
let add (index : index) (tokens : token list) (id : int) : index =
  let dict = Hashtbl.copy index.dict in
  let next =
    List.fold_left
      (fun next t ->
        let counter =
          match Counters.find_opt t.t_label next with
          | Some c -> c
          | None -> List.length (search index t)
        in
        let label, value = entry t counter id in
        if Hashtbl.mem dict label then failwith "Sse.add: label collision";
        Hashtbl.add dict label value;
        Counters.add t.t_label (counter + 1) next)
      index.next tokens
  in
  { dict; next }

(* --- simulator ----------------------------------------------------------

   For the security experiment (§4.2): given only the index size and, per
   query, the access pattern, produce an index and tokens with the same
   distribution as the real ones. Labels and masked values are uniformly
   random in the real scheme (PRF outputs on fresh points), so the
   simulator samples them uniformly and programs consistency. *)

let simulate_index (drbg : Drbg.t) ~(entries : int) : index =
  let dict = Hashtbl.create (2 * entries) in
  for _ = 1 to entries do
    Hashtbl.add dict (Drbg.bytes drbg label_size) (Drbg.bytes drbg id_size)
  done;
  of_dict dict

let simulate_token (drbg : Drbg.t) : token =
  { t_label = Drbg.bytes drbg Prf.key_size; t_mask = Drbg.bytes drbg Prf.key_size }
