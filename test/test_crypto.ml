module Sha256 = Hashcrypto.Sha256
module Lamport = Hashcrypto.Lamport
module Merkle = Hashcrypto.Merkle
module Sha256_int32 = Oracle.Sha256_int32

let hex = Sha256.to_hex
let unhex s = Testutil.check_ok (Testutil.of_hex s)

(* FIPS 180-4 / NIST CAVS vectors. *)
let sha256_vectors =
  [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    (String.make 1000000 'a', "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    ("message digest", "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650");
    ("secure hash algorithm", "f30ceb2bb2829e79e4ca9753d35a8ecc00262d164cc077080295381cbd643f0d") ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, digest) ->
      Alcotest.(check string)
        (if String.length msg > 40 then "long input" else msg)
        digest (hex (Sha256.digest msg)))
    sha256_vectors

let test_sha256_streaming () =
  (* Feeding in odd-sized chunks must equal one-shot hashing,
     exercising the block-buffer boundary logic. *)
  let msg = String.init 3000 (fun i -> Char.chr (i mod 251)) in
  List.iter
    (fun chunk_size ->
      let ctx = Sha256.init () in
      let rec go off =
        if off < String.length msg then begin
          let n = min chunk_size (String.length msg - off) in
          Sha256.feed ctx (String.sub msg off n);
          go (off + n)
        end
      in
      go 0;
      Alcotest.(check string)
        (Printf.sprintf "chunk size %d" chunk_size)
        (hex (Sha256.digest msg))
        (hex (Sha256.get ctx)))
    [ 1; 3; 63; 64; 65; 127; 128; 1000 ]

(* Known answers from an independent implementation (Python's
   hashlib), at the lengths where a kernel's padding and block
   handling can go wrong: one byte short of the length field, exactly
   one block, and the second block. *)
let boundary_vectors =
  [ (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
    (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
    (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
    (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
    (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
    (119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb");
    (120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c");
    (128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e") ]

let test_sha256_block_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries, of 'a's. *)
  List.iter
    (fun (n, digest) ->
      Alcotest.(check string) (Printf.sprintf "length %d" n) digest
        (hex (Sha256.digest (String.make n 'a'))))
    boundary_vectors;
  List.iter
    (fun n ->
      let msg = String.make n 'a' in
      let ctx = Sha256.init () in
      Sha256.feed ctx msg;
      Alcotest.(check string)
        (Printf.sprintf "length %d" n)
        (hex (Sha256.digest msg))
        (hex (Sha256.get ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let test_sha256_high_bits () =
  (* Every message word of an all-0xff input has bit 31 set: a native-int
     kernel that misses a mask, or sign-extends a word, fails here. *)
  List.iter
    (fun (n, digest) ->
      Alcotest.(check string) (Printf.sprintf "%d bytes of 0xff" n) digest
        (hex (Sha256.digest (String.make n '\xff'))))
    [ (1, "a8100ae6aa1940d0b663bb31cd466142ebbdbd5187131b92d93818987832eb89");
      (64, "8667e718294e9e0df1d30600ba3eeb201f764aad2dad72748643e4a285e1d1f7");
      (1000, "b4f73dff046400b76728ab32619e3d89e00132653725f660c62ab9fca975b372") ]

let test_sha256_mib_in_small_chunks () =
  (* 1 MiB fed 7 bytes at a time, at offsets into one buffer: every
     block is assembled in the context's buffer, and most block
     boundaries fall inside a chunk. *)
  let n = 1 lsl 20 in
  let b = Bytes.init n (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let rec go off =
    if off < n then begin
      let len = Int.min 7 (n - off) in
      Sha256.feed_bytes ctx b ~off ~len;
      go (off + len)
    end
  in
  go 0;
  Alcotest.(check string) "1 MiB in 7-byte chunks"
    "631b84027d6b9e52b539c4e8373622d23032dfadc64d60af87339c9037e4f769" (hex (Sha256.get ctx))

let test_sha256_allocation () =
  (* The kernel's words are native ints: hashing allocates nothing per
     block, and a one-block digest allocates only its context and its
     32-byte result. Native code only: bytecode boxes each Int32 read. *)
  if Sys.backend_type = Sys.Native then begin
    let b = Bytes.make 65536 '\xa5' in
    let ctx = Sha256.init () in
    let before = Gc.minor_words () in
    Sha256.feed_bytes ctx b ~off:1 ~len:65535;
    let per_mib = (Gc.minor_words () -. before) *. 16. in
    Alcotest.(check bool) (Printf.sprintf "feed allocates nothing (%.0f words/MiB)" per_mib) true
      (per_mib < 1.);
    let msg = String.make 32 'x' in
    let before = Gc.minor_words () in
    ignore (Sha256.digest msg);
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool) (Printf.sprintf "32-byte digest allocates %.0f words" words) true
      (words < 128.)
  end

let test_hex_roundtrip () =
  let d = Sha256.digest "x" in
  Alcotest.(check string) "roundtrip" (hex d) (hex (unhex (hex d)));
  (match Testutil.of_hex "0g" with Ok _ -> Alcotest.fail "bad digit" | Error _ -> ());
  match Testutil.of_hex "abc" with Ok _ -> Alcotest.fail "odd length" | Error _ -> ()

let test_lamport_sign_verify () =
  let sk, pk = Lamport.generate ~seed:"test-1" in
  let sg = Lamport.sign sk "attack at dawn" in
  Alcotest.(check bool) "verifies" true (Lamport.verify pk "attack at dawn" sg);
  Alcotest.(check bool) "wrong message" false (Lamport.verify pk "attack at dusk" sg);
  let _, pk2 = Lamport.generate ~seed:"test-2" in
  Alcotest.(check bool) "wrong key" false (Lamport.verify pk2 "attack at dawn" sg)

let test_lamport_determinism () =
  let _, pk1 = Lamport.generate ~seed:"same" in
  let _, pk2 = Lamport.generate ~seed:"same" in
  let _, pk3 = Lamport.generate ~seed:"different" in
  Alcotest.(check bool) "same seed, same key" true (String.equal pk1 pk2);
  Alcotest.(check bool) "different seed, different key" false (String.equal pk1 pk3)

let test_lamport_encode_decode () =
  let sk, pk = Lamport.generate ~seed:"enc" in
  let sg = Lamport.sign sk "msg" in
  let sg' = Testutil.check_ok (Lamport.decode (Lamport.encode sg)) in
  Alcotest.(check bool) "decoded verifies" true (Lamport.verify pk "msg" sg');
  match Lamport.decode "too short" with
  | Ok _ -> Alcotest.fail "accepted short encoding"
  | Error _ -> ()

let test_lamport_tamper () =
  let sk, pk = Lamport.generate ~seed:"tamper" in
  let sg = Lamport.sign sk "msg" in
  let enc = Bytes.of_string (Lamport.encode sg) in
  Bytes.set enc 100 (Char.chr (Char.code (Bytes.get enc 100) lxor 1));
  let sg' = Testutil.check_ok (Lamport.decode (Bytes.to_string enc)) in
  Alcotest.(check bool) "tampered signature rejected" false (Lamport.verify pk "msg" sg')

let test_merkle_multi_sign () =
  let sk, pk = Merkle.generate ~seed:"mss" ~height:3 in
  Alcotest.(check int) "capacity" 8 (Merkle.capacity sk);
  let msgs = List.init 8 (fun i -> Printf.sprintf "message %d" i) in
  let sigs = List.map (Merkle.sign sk) msgs in
  Alcotest.(check int) "exhausted" 0 (Merkle.capacity sk);
  List.iter2
    (fun m s -> Alcotest.(check bool) m true (Merkle.verify pk m s))
    msgs sigs;
  (* Signatures don't cross-verify. *)
  Alcotest.(check bool) "cross" false
    (Merkle.verify pk (List.nth msgs 0) (List.nth sigs 1));
  match Merkle.sign sk "one more" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "signed beyond capacity"

let test_merkle_encode_decode () =
  let sk, pk = Merkle.generate ~seed:"mss-enc" ~height:2 in
  let sg = Merkle.sign sk "hello" in
  let sg' = Testutil.check_ok (Merkle.decode (Merkle.encode sg)) in
  Alcotest.(check bool) "decoded verifies" true (Merkle.verify pk "hello" sg');
  Alcotest.(check bool) "size positive" true (Merkle.signature_size sg > 0);
  match Merkle.decode (String.make 50 'x') with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

let test_merkle_height_zero () =
  let sk, pk = Merkle.generate ~seed:"h0" ~height:0 in
  Alcotest.(check int) "one-shot" 1 (Merkle.capacity sk);
  let sg = Merkle.sign sk "only" in
  Alcotest.(check bool) "verifies" true (Merkle.verify pk "only" sg);
  match Merkle.generate ~seed:"bad" ~height:25 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted excessive height"

(* Random messages of 0-300 bytes cut at random points: the kernel must
   agree bit for bit with the boxed-Int32 oracle one-shot, over
   [digest_concat] and streaming through [feed]/[feed_bytes]. *)
let prop_sha256_matches_oracle =
  let gen =
    QCheck2.Gen.(
      let* msg = string_size (int_bound 300) in
      let* cuts = list_size (int_bound 8) (int_bound (String.length msg)) in
      return (msg, List.sort_uniq Int.compare cuts))
  in
  (* (offset, length) of each piece between consecutive cuts *)
  let spans (msg, cuts) =
    let rec go = function a :: (b :: _ as rest) -> (a, b - a) :: go rest | _ -> [] in
    go ((0 :: cuts) @ [ String.length msg ])
  in
  QCheck2.Test.make ~name:"sha256 matches the Int32 oracle" ~count:500
    ~print:(fun (msg, cuts) ->
      Printf.sprintf "%S cut at [%s]" msg (String.concat "; " (List.map string_of_int cuts)))
    gen
    (fun ((msg, _) as case) ->
      let spans = spans case in
      let parts = List.map (fun (off, len) -> String.sub msg off len) spans in
      let streamed =
        let ctx = Sha256.init () and b = Bytes.of_string msg in
        (* alternate the string and the offset entry points *)
        List.iteri
          (fun i (off, len) ->
            if i land 1 = 0 then Sha256.feed ctx (String.sub msg off len)
            else Sha256.feed_bytes ctx b ~off ~len)
          spans;
        Sha256.get ctx
      in
      let oracle_streamed =
        let ctx = Sha256_int32.init () in
        List.iter (Sha256_int32.feed ctx) parts;
        Sha256_int32.get ctx
      in
      String.equal (Sha256.digest msg) (Sha256_int32.digest msg)
      && String.equal (Sha256.digest_concat parts) (Sha256_int32.digest_concat parts)
      && String.equal streamed oracle_streamed)

(* A well-sized signature encoding with the given header fields and an
   arbitrary body: [decode] checks only the header and the length. *)
let merkle_wire ~index ~path_field ~path_len =
  String.concat ""
    [ index; path_field; String.make 32 'k'; String.make (256 * 2 * 32) 's';
      String.make (path_len * 32) 'p' ]

let test_merkle_canonical_header () =
  let sk, pk = Merkle.generate ~seed:"hdr" ~height:1 in
  ignore (Merkle.sign sk "first");
  let enc = Merkle.encode (Merkle.sign sk "second") in
  Alcotest.(check string) "header as encode writes it" "0000000101" (String.sub enc 0 10);
  let with_header h = h ^ String.sub enc 10 (String.length enc - 10) in
  Alcotest.(check bool) "canonical verifies" true
    (Merkle.verify pk "second" (Testutil.check_ok (Merkle.decode (with_header "0000000101"))));
  let rejects what s =
    match Merkle.decode s with
    | Ok _ -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  rejects "'_' in the index" (with_header "0000_00101");
  rejects "'_' in the path length" (merkle_wire ~index:"00000001" ~path_field:"0_" ~path_len:0);
  rejects "uppercase index" (merkle_wire ~index:"0000000A" ~path_field:"00" ~path_len:0);
  rejects "uppercase path length" (merkle_wire ~index:"00000000" ~path_field:"0A" ~path_len:10);
  let lower = merkle_wire ~index:"0000000a" ~path_field:"0a" ~path_len:10 in
  Alcotest.(check string) "lowercase round-trips" lower
    (Merkle.encode (Testutil.check_ok (Merkle.decode lower)))

(* Canonical headers, some with one or two characters swapped for
   characters [int_of_string] would also take, or would not. *)
let prop_merkle_decode_canonical =
  let gen =
    QCheck2.Gen.(
      let* index = int_bound 0x3fff_ffff in
      let* path_len = int_bound 3 in
      let* swaps =
        list_size (int_bound 2)
          (pair (int_bound 9) (oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF_xX+- "))))
      in
      let header = Bytes.of_string (Printf.sprintf "%08x%02x" index path_len) in
      List.iter (fun (i, c) -> Bytes.set header i c) swaps;
      return (Bytes.to_string header, path_len))
  in
  QCheck2.Test.make ~name:"merkle encode (decode s) = s for every accepted s" ~count:300
    ~print:(fun (h, n) -> Printf.sprintf "header %S, %d path hashes" h n)
    gen
    (fun (header, path_len) ->
      let s =
        merkle_wire ~index:(String.sub header 0 8) ~path_field:(String.sub header 8 2) ~path_len
      in
      match Merkle.decode s with Ok sg -> String.equal (Merkle.encode sg) s | Error _ -> true)

let prop_merkle_verify =
  QCheck2.Test.make ~name:"merkle sign/verify for random messages" ~count:30
    QCheck2.Gen.(pair (string_size (int_bound 100)) small_int)
    (fun (msg, n) ->
      let sk, pk = Merkle.generate ~seed:(string_of_int n) ~height:1 in
      let sg = Merkle.sign sk msg in
      Merkle.verify pk msg sg && not (Merkle.verify pk (msg ^ "x") sg))

let () =
  Alcotest.run "hashcrypto"
    [ ( "sha256",
        [ Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "streaming chunks" `Quick test_sha256_streaming;
          Alcotest.test_case "padding boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "all-ones words" `Quick test_sha256_high_bits;
          Alcotest.test_case "1 MiB in 7-byte chunks" `Quick test_sha256_mib_in_small_chunks;
          Alcotest.test_case "no allocation per block" `Quick test_sha256_allocation;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip ] );
      ( "lamport",
        [ Alcotest.test_case "sign/verify" `Quick test_lamport_sign_verify;
          Alcotest.test_case "determinism" `Quick test_lamport_determinism;
          Alcotest.test_case "encode/decode" `Quick test_lamport_encode_decode;
          Alcotest.test_case "tamper" `Quick test_lamport_tamper ] );
      ( "merkle",
        [ Alcotest.test_case "multi-sign" `Quick test_merkle_multi_sign;
          Alcotest.test_case "encode/decode" `Quick test_merkle_encode_decode;
          Alcotest.test_case "canonical header only" `Quick test_merkle_canonical_header;
          Alcotest.test_case "height zero and bounds" `Quick test_merkle_height_zero ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sha256_matches_oracle; prop_merkle_verify; prop_merkle_decode_canonical ] ) ]
