let hash_len = 32
let digest_bits = 256

type secret_key = { seed : string }
type public_key = string

(* A signature is its wire encoding, read at offsets: for each digest
   bit i, at [64 i], the preimage that bit selects, then the hash of the
   other one, so the verifier can rebuild the full 512-hash commitment
   and compare it to the public key. [sign] and [decode] make only
   strings of [size] bytes. *)
type signature = string

let size = digest_bits * 2 * hash_len

(* The bit and index that end each preimage's derivation, built once. *)
let bit_labels = [| "\x00"; "\x01" |]
let index_labels = Array.init digest_bits (Printf.sprintf "%03d")

let preimage seed i b = Sha256.digest_concat [ "lamport-preimage"; seed; bit_labels.(b); index_labels.(i) ]

let commitment seed =
  let ctx = Sha256.init () in
  for i = 0 to digest_bits - 1 do
    Sha256.feed_digest ctx (preimage seed i 0) ~off:0 ~len:hash_len;
    Sha256.feed_digest ctx (preimage seed i 1) ~off:0 ~len:hash_len
  done;
  Sha256.get ctx

let generate ~seed =
  let seed = Sha256.digest_concat [ "lamport-seed"; seed ] in
  ({ seed }, commitment seed)

let msg_bit digest i = (Char.code digest.[i / 8] lsr (7 - (i mod 8))) land 1

let sign sk msg =
  let d = Sha256.digest msg in
  let out = Bytes.create size in
  for i = 0 to digest_bits - 1 do
    let b = msg_bit d i and off = i * 2 * hash_len in
    Bytes.blit_string (preimage sk.seed i b) 0 out off hash_len;
    Bytes.blit_string (Sha256.digest (preimage sk.seed i (1 - b))) 0 out (off + hash_len) hash_len
  done;
  Bytes.unsafe_to_string out

let verify pk msg sg =
  let d = Sha256.digest msg in
  let ctx = Sha256.init () in
  for i = 0 to digest_bits - 1 do
    let off = i * 2 * hash_len in
    if msg_bit d i = 0 then begin
      Sha256.feed_digest ctx sg ~off ~len:hash_len;
      Sha256.feed_substring ctx sg ~off:(off + hash_len) ~len:hash_len
    end
    else begin
      Sha256.feed_substring ctx sg ~off:(off + hash_len) ~len:hash_len;
      Sha256.feed_digest ctx sg ~off ~len:hash_len
    end
  done;
  String.equal (Sha256.get ctx) pk

let signature_size _ = size
let encode sg = sg
let decode s = if String.length s <> size then Error "Lamport.decode: bad length" else Ok s
