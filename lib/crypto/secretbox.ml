(* Authenticated symmetric encryption: ChaCha20 + HMAC-SHA256
   (encrypt-then-MAC).

   Used for row payloads in the SSE index and anywhere the schemes need
   semantically secure symmetric encryption of byte strings. *)

type key = { enc : string; mac : string }

(* Derive the encryption/MAC key pair from one master secret. *)
let of_master (master : string) : key =
  let okm = Hmac.hkdf ~salt:"sagma-secretbox" ~ikm:master 64 in
  { enc = String.sub okm 0 32; mac = String.sub okm 32 32 }

let gen_key (drbg : Drbg.t) : key = of_master (Drbg.bytes drbg 32)

let nonce_size = Chacha20.nonce_size
let tag_size = Hmac.tag_size

(* Wire format: nonce || ciphertext || tag. *)
let seal (k : key) (drbg : Drbg.t) (plaintext : string) : string =
  let nonce = Drbg.bytes drbg nonce_size in
  let ct = Chacha20.encrypt ~key:k.enc ~nonce plaintext in
  let tag = Hmac.mac ~key:k.mac (nonce ^ ct) in
  nonce ^ ct ^ tag

let open_exn (k : key) (box : string) : string =
  let n = String.length box in
  if n < nonce_size + tag_size then invalid_arg "Secretbox.open_exn: too short";
  let nonce = String.sub box 0 nonce_size in
  let ct = String.sub box nonce_size (n - nonce_size - tag_size) in
  let tag = String.sub box (n - tag_size) tag_size in
  if not (Hmac.verify ~key:k.mac (nonce ^ ct) tag) then
    invalid_arg "Secretbox.open_exn: authentication failed";
  Chacha20.decrypt ~key:k.enc ~nonce ct

let open_opt (k : key) (box : string) : string option =
  try Some (open_exn k box) with Invalid_argument _ -> None
