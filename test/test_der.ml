module Der = Asn1.Der

let hex s = Testutil.check_ok (Testutil.of_hex s)
let der = Alcotest.testable Der.pp Der.equal

let check_encoding name value expected_hex =
  Alcotest.(check string) name expected_hex (Hashcrypto.Sha256.to_hex (Der.encode value))

let test_primitive_encodings () =
  check_encoding "INTEGER 0" (Der.Integer 0L) "020100";
  check_encoding "INTEGER 127" (Der.Integer 127L) "02017f";
  check_encoding "INTEGER 128" (Der.Integer 128L) "02020080";
  check_encoding "INTEGER 256" (Der.Integer 256L) "02020100";
  check_encoding "INTEGER -1" (Der.Integer (-1L)) "0201ff";
  check_encoding "INTEGER -129" (Der.Integer (-129L)) "0202ff7f";
  check_encoding "BOOLEAN true" (Der.Boolean true) "0101ff";
  check_encoding "BOOLEAN false" (Der.Boolean false) "010100";
  check_encoding "NULL" Der.Null "0500";
  check_encoding "OCTET STRING" (Der.Octet_string "\x01\x02") "04020102";
  check_encoding "empty SEQUENCE" (Der.Sequence []) "3000";
  (* sha256WithRSAEncryption, a standard reference OID. *)
  check_encoding "OID 1.2.840.113549.1.1.11" (Der.Oid [ 1; 2; 840; 113549; 1; 1; 11 ])
    "06092a864886f70d01010b";
  check_encoding "BIT STRING 6 bits" (Der.Bit_string (2, "\x6e")) "0302026e";
  check_encoding "context [0] constructed" (Der.Context (0, [ Der.Integer 0L ])) "a003020100"

let test_long_length () =
  (* A 300-byte OCTET STRING requires the 0x82 long form. *)
  let v = Der.Octet_string (String.make 300 'x') in
  let enc = Der.encode v in
  Alcotest.(check int) "length" (4 + 300) (String.length enc);
  Alcotest.(check string) "header" "0482012c" (Hashcrypto.Sha256.to_hex (String.sub enc 0 4));
  Alcotest.check der "roundtrip" v (Testutil.check_ok (Der.decode enc))

let test_decode_rejects () =
  List.iter
    (fun (name, bytes_hex) ->
      match Der.decode (hex bytes_hex) with
      | Ok v -> Alcotest.failf "%s: accepted %a" name Der.pp v
      | Error _ -> ())
    [ ("empty", "");
      ("truncated length", "02");
      ("truncated value", "0204ff");
      ("trailing bytes", "050000");
      ("indefinite length", "0280");
      ("non-minimal length", "048105ff");
      ("non-minimal length 2", "04820001ff");
      ("empty INTEGER", "0200");
      ("non-minimal INTEGER +", "0202007f");
      ("non-minimal INTEGER -", "0202ff80");
      ("INTEGER too large", "0209010203040506070809");
      ("bad BOOLEAN", "010101");
      ("BOOLEAN length", "01020000");
      ("non-empty NULL", "050100");
      ("BIT STRING unused > 7", "030208ff");
      ("empty BIT STRING", "0300");
      ("empty OID", "0600");
      ("non-minimal OID component", "06028001");
      ("unsupported tag", "1300") ]

let test_nested_structure () =
  let v =
    Der.Sequence
      [ Der.Integer 31283L;
        Der.Sequence
          [ Der.Sequence [ Der.Octet_string "\x00\x01"; Der.Sequence [ Der.Bit_string (5, "\x57\xfe\x20") ] ] ];
        Der.Context (3, [ Der.Ia5_string "hello"; Der.Set [ Der.Boolean true ] ]) ]
  in
  Alcotest.check der "roundtrip" v (Testutil.check_ok (Der.decode (Der.encode v)))

let test_accessors () =
  let open Der in
  Alcotest.(check int) "as_int" 42 (Testutil.check_ok (as_int (Integer 42L)));
  (match as_int (Integer Int64.max_int) with
   | Ok _ -> () (* max_int64 fits in OCaml int? No: 2^63-1 > 2^62-1 *)
   | Error _ -> ());
  (match as_sequence (Integer 0L) with
   | Ok _ -> Alcotest.fail "as_sequence on INTEGER"
   | Error _ -> ())

(* DER value generator for roundtrip fuzzing. *)
let gen_der =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun b -> Der.Boolean b) bool;
        map (fun i -> Der.Integer (Int64.of_int i)) int;
        map (fun s -> Der.Octet_string s) (string_size (int_bound 40));
        return Der.Null;
        map (fun s -> Der.Ia5_string s) (string_size ~gen:(char_range 'a' 'z') (int_bound 20));
        map2
          (fun unused s ->
            if s = "" then Der.Bit_string (0, "")
            else begin
              (* DER requires the unused bits be zero. *)
              let b = Bytes.of_string s in
              let last = Bytes.length b - 1 in
              Bytes.set b last (Char.chr (Char.code (Bytes.get b last) land (0xff lsl unused) land 0xff));
              Der.Bit_string (unused, Bytes.to_string b)
            end)
          (int_bound 7)
          (string_size (int_bound 10));
        map2
          (fun a rest -> Der.Oid (2 :: a :: List.map abs rest))
          (int_bound 39)
          (list_size (int_bound 6) (int_bound 1_000_000)) ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      oneof
        [ leaf;
          map (fun l -> Der.Sequence l) (list_size (int_bound 4) (tree (depth - 1)));
          map (fun l -> Der.Set l) (list_size (int_bound 4) (tree (depth - 1)));
          map2 (fun n l -> Der.Context (n, l)) (int_bound 30) (list_size (int_bound 3) (tree (depth - 1)));
          map2 (fun n s -> Der.Context_prim (n, s)) (int_bound 30) (string_size (int_bound 20)) ]
  in
  tree 3

let prop_roundtrip =
  QCheck2.Test.make ~name:"DER encode/decode roundtrip" ~count:500 gen_der (fun v ->
      match Der.decode (Der.encode v) with
      | Ok v' -> Der.equal v v'
      | Error _ -> false)

let prop_decode_total =
  (* The decoder must never raise, whatever the bytes. *)
  QCheck2.Test.make ~name:"decoder is total on random bytes" ~count:1000
    QCheck2.Gen.(string_size (int_bound 64))
    (fun s ->
      match Der.decode s with
      | Ok _ | Error _ -> true)

let prop_decode_truncations =
  (* Every strict prefix of a valid encoding must be rejected, not
     crash. *)
  QCheck2.Test.make ~name:"truncations of valid encodings rejected" ~count:200 gen_der (fun v ->
      let enc = Der.encode v in
      let ok = ref true in
      for i = 0 to String.length enc - 1 do
        match Der.decode (String.sub enc 0 i) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

let () =
  Alcotest.run "asn1.der"
    [ ( "encoding",
        [ Alcotest.test_case "primitives" `Quick test_primitive_encodings;
          Alcotest.test_case "long length" `Quick test_long_length;
          Alcotest.test_case "nested" `Quick test_nested_structure ] );
      ( "decoding",
        [ Alcotest.test_case "rejects malformed" `Quick test_decode_rejects;
          Alcotest.test_case "accessors" `Quick test_accessors ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_decode_total; prop_decode_truncations ] ) ]
