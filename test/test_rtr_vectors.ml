(* Golden RFC 8210 wire vectors: every PDU type as checked-in hex,
   pinned against the decoder AND the encoder. A change to either that
   shifts a single byte fails here — this is the interop contract with
   implementations we cannot link against. *)

module Pdu = Rtr.Pdu
module Vrp = Rpki.Vrp

let pdu = Alcotest.testable Pdu.pp Pdu.equal
let p s = Netaddr.Pfx.of_string_exn s
let a n = Rpki.Asnum.of_int n

(* The corpus directory, whether the runner's cwd is test/ (dune
   runtest) or the project root (dune exec). *)
let vectors_root =
  List.find Sys.file_exists [ "rtr_vectors"; Filename.concat "test" "rtr_vectors" ]

(* A vector file is hex with free whitespace and '#' comment lines. *)
let load name =
  let ic = open_in_bin (Filename.concat vectors_root name) in
  let len = in_channel_length ic in
  let raw = really_input_string ic len in
  close_in ic;
  let buf = Buffer.create len in
  List.iter
    (fun line ->
      if not (String.length line > 0 && line.[0] = '#') then
        String.iter (fun c -> if c <> ' ' && c <> '\t' && c <> '\r' then Buffer.add_char buf c) line)
    (String.split_on_char '\n' raw);
  match Testutil.of_hex (Buffer.contents buf) with
  | Ok bytes -> bytes
  | Error e -> Alcotest.failf "%s: bad hex: %s" name e

let vectors =
  [ ("serial_notify.hex", Pdu.Serial_notify { session_id = 0x1234; serial = 42l });
    ("serial_query.hex", Pdu.Serial_query { session_id = 0xffff; serial = 0xfffffffel });
    ("reset_query.hex", Pdu.Reset_query);
    ("cache_response.hex", Pdu.Cache_response { session_id = 7 });
    ( "ipv4_prefix_announce.hex",
      Pdu.Prefix
        { flags = Pdu.Announce; vrp = Vrp.make_exn (p "168.122.0.0/16") ~max_len:24 (a 111) } );
    ( "ipv4_prefix_withdraw.hex",
      Pdu.Prefix { flags = Pdu.Withdraw; vrp = Vrp.exact (p "10.0.0.0/8") (a 4200000000) } );
    ( "ipv6_prefix_announce.hex",
      Pdu.Prefix
        { flags = Pdu.Announce; vrp = Vrp.make_exn (p "2001:db8::/32") ~max_len:48 (a 31283) } );
    ( "ipv6_prefix_withdraw.hex",
      Pdu.Prefix { flags = Pdu.Withdraw; vrp = Vrp.exact (p "2001:db8:42::/48") (a 65551) } );
    ( "end_of_data.hex",
      Pdu.End_of_data
        { session_id = 9;
          serial = 0x80000000l;
          refresh_interval = 3600l;
          retry_interval = 600l;
          expire_interval = 7200l } );
    ("cache_reset.hex", Pdu.Cache_reset);
    ( "error_report_empty.hex",
      Pdu.Error_report { code = Pdu.No_data_available; erroneous_pdu = ""; message = "" } );
    ( "error_report_full.hex",
      Pdu.Error_report
        { code = Pdu.Corrupt_data; erroneous_pdu = Pdu.encode Pdu.Reset_query; message = "bad" } ) ]

let test_decode () =
  List.iter
    (fun (name, expected) ->
      let wire = load name in
      match Pdu.decode wire 0 with
      | Ok (got, off) ->
        Alcotest.check pdu name expected got;
        Alcotest.(check int) (name ^ " consumed") (String.length wire) off
      | Error e -> Alcotest.failf "%s: decode failed: %s" name e)
    vectors

let test_reencode_identical () =
  List.iter
    (fun (name, expected) ->
      let wire = load name in
      Alcotest.(check string)
        (name ^ " re-encodes byte-identically")
        (Hashcrypto.Sha256.to_hex wire)
        (Hashcrypto.Sha256.to_hex (Pdu.encode expected)))
    vectors

let test_concatenated_stream () =
  (* All vectors back-to-back form one valid RTR byte stream. *)
  let wire = String.concat "" (List.map (fun (name, _) -> load name) vectors) in
  match Pdu.decode_all wire with
  | Ok got -> Alcotest.(check (list pdu)) "whole corpus" (List.map snd vectors) got
  | Error e -> Alcotest.failf "decode_all failed: %s" e

let test_every_type_covered () =
  (* The corpus must stay exhaustive if PDU types are ever added. *)
  let tag = function
    | Pdu.Serial_notify _ -> 0
    | Pdu.Serial_query _ -> 1
    | Pdu.Reset_query -> 2
    | Pdu.Cache_response _ -> 3
    | Pdu.Prefix { vrp; _ } -> (match vrp.Vrp.prefix with Netaddr.Pfx.V4 _ -> 4 | Netaddr.Pfx.V6 _ -> 6)
    | Pdu.End_of_data _ -> 7
    | Pdu.Cache_reset -> 8
    | Pdu.Error_report _ -> 10
  in
  let seen = List.sort_uniq Int.compare (List.map (fun (_, x) -> tag x) vectors) in
  Alcotest.(check (list int)) "all RFC 8210 PDU types" [ 0; 1; 2; 3; 4; 6; 7; 8; 10 ] seen

let () =
  Alcotest.run "rtr_vectors"
    [ ( "golden",
        [ Alcotest.test_case "decode" `Quick test_decode;
          Alcotest.test_case "re-encode byte-identical" `Quick test_reencode_identical;
          Alcotest.test_case "concatenated stream" `Quick test_concatenated_stream;
          Alcotest.test_case "every type covered" `Quick test_every_type_covered ] ) ]
