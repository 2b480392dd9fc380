let hash_len = 32

type secret_key = {
  seed : string;
  height : int;
  leaves : Lamport.public_key array; (* Lamport pk per leaf *)
  tree : string array array; (* tree.(level).(i); level 0 = leaves *)
  mutable next : int;
}

type public_key = string

type signature = {
  leaf_index : int;
  leaf_pk : Lamport.public_key;
  ots : Lamport.signature;
  auth_path : string array; (* sibling hashes, leaf level first *)
}

let leaf_seed seed i = Sha256.digest_concat [ "mss-leaf"; seed; string_of_int i ]
let node_hash l r = Sha256.digest_concat [ "mss-node"; l; r ]
let leaf_hash pk = Sha256.digest_concat [ "mss-leafhash"; pk ]

let generate ~seed ~height =
  if height < 0 || height > 20 then invalid_arg "Merkle.generate: height must be in [0, 20]";
  let n = 1 lsl height in
  let leaves =
    Array.init n (fun i ->
        let _, pk = Lamport.generate ~seed:(leaf_seed seed i) in
        pk)
  in
  let tree = Array.make (height + 1) [||] in
  tree.(0) <- Array.map leaf_hash leaves;
  for level = 1 to height do
    let below = tree.(level - 1) in
    tree.(level) <- Array.init (Array.length below / 2) (fun i -> node_hash below.(2 * i) below.((2 * i) + 1))
  done;
  let sk = { seed; height; leaves; tree; next = 0 } in
  (sk, tree.(height).(0))

let capacity sk = (1 lsl sk.height) - sk.next

let sign sk msg =
  if capacity sk = 0 then failwith "Merkle.sign: key exhausted";
  let i = sk.next in
  sk.next <- i + 1;
  let ots_sk, leaf_pk = Lamport.generate ~seed:(leaf_seed sk.seed i) in
  assert (String.equal leaf_pk sk.leaves.(i));
  let ots = Lamport.sign ots_sk msg in
  let auth_path =
    Array.init sk.height (fun level ->
        let idx = i lsr level in
        sk.tree.(level).(idx lxor 1))
  in
  { leaf_index = i; leaf_pk; ots; auth_path }

let verify pk msg sg =
  sg.leaf_index >= 0
  && sg.leaf_index lsr Array.length sg.auth_path = 0
  && Lamport.verify sg.leaf_pk msg sg.ots
  && begin
    let node = ref (leaf_hash sg.leaf_pk) in
    let idx = ref sg.leaf_index in
    Array.iter
      (fun sibling ->
        node := (if !idx land 1 = 0 then node_hash !node sibling else node_hash sibling !node);
        idx := !idx lsr 1)
      sg.auth_path;
    String.equal !node pk
  end

let signature_size sg =
  8 + hash_len + Lamport.signature_size sg.ots + (Array.length sg.auth_path * hash_len)

let encode sg =
  let buf = Buffer.create (signature_size sg) in
  Buffer.add_string buf (Printf.sprintf "%08x" sg.leaf_index);
  Buffer.add_string buf (Printf.sprintf "%02x" (Array.length sg.auth_path));
  Buffer.add_string buf sg.leaf_pk;
  Buffer.add_string buf (Lamport.encode sg.ots);
  Array.iter (Buffer.add_string buf) sg.auth_path;
  Buffer.contents buf

(* The header fields exactly as [encode] writes them: [len] lowercase
   hex digits, nothing else, so that a decoded signature re-encodes to
   the bytes it came from. *)
let hex_field s off len =
  let rec go i acc =
    if i = off + len then Some acc
    else
      match s.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - Char.code '0'))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - Char.code 'a' + 10))
      | _ -> None
  in
  go off 0

let decode s =
  let ( let* ) r f = Result.bind r f in
  let fail m = Error ("Merkle.decode: " ^ m) in
  if String.length s < 10 + hash_len then fail "truncated header"
  else
    let* leaf_index =
      match hex_field s 0 8 with
      | Some v -> Ok v
      | None -> fail "bad index"
    in
    let* path_len =
      match hex_field s 8 2 with
      | Some v when v <= 20 -> Ok v
      | Some _ | None -> fail "bad path length"
    in
    let ots_len = 256 * 2 * hash_len in
    let expect = 10 + hash_len + ots_len + (path_len * hash_len) in
    if String.length s <> expect then fail "bad length"
    else
      let leaf_pk = String.sub s 10 hash_len in
      let* ots = Lamport.decode (String.sub s (10 + hash_len) ots_len) in
      let auth_path =
        Array.init path_len (fun i -> String.sub s (10 + hash_len + ots_len + (i * hash_len)) hash_len)
      in
      Ok { leaf_index; leaf_pk; ots; auth_path }
