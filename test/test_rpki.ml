module Asnum = Rpki.Asnum
module Vrp = Rpki.Vrp
module Roa = Rpki.Roa
module Pfx = Netaddr.Pfx

let p = Testutil.p4
let a = Testutil.a

(* --- AS numbers --- *)

let test_asnum_parse () =
  Alcotest.check Testutil.asn "plain" (a 64500) (Testutil.check_ok (Asnum.of_string "64500"));
  Alcotest.check Testutil.asn "AS prefix" (a 111) (Testutil.check_ok (Asnum.of_string "AS111"));
  Alcotest.check Testutil.asn "lowercase" (a 111) (Testutil.check_ok (Asnum.of_string "as111"));
  Alcotest.(check string) "render" "AS64500" (Asnum.to_string (a 64500));
  List.iter
    (fun s ->
      match Asnum.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "AS"; "AS-1"; "4294967296"; "12ab"; "AS 1" ]

let test_asnum_bounds () =
  Alcotest.(check int) "max" 4294967295 (Asnum.to_int (a 4294967295));
  (match Asnum.of_int (-1) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative ASN");
  (match Asnum.of_int (1 lsl 32) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "ASN > 32 bits");
  Alcotest.(check bool) "AS0" true (Asnum.is_zero Asnum.zero);
  Alcotest.(check bool) "AS1 not zero" false (Asnum.is_zero (a 1))

(* --- VRPs --- *)

let test_vrp_make () =
  let v = Testutil.check_ok (Vrp.make (p "168.122.0.0/16") ~max_len:24 (a 111)) in
  Alcotest.(check bool) "uses maxlen" true (Vrp.uses_max_len v);
  Alcotest.(check bool) "exact does not" false (Vrp.uses_max_len (Vrp.exact (p "10.0.0.0/8") (a 1)));
  (match Vrp.make (p "10.0.0.0/16") ~max_len:8 (a 1) with
   | Ok _ -> Alcotest.fail "maxLength below prefix length"
   | Error _ -> ());
  (match Vrp.make (p "10.0.0.0/16") ~max_len:33 (a 1) with
   | Ok _ -> Alcotest.fail "maxLength beyond address bits"
   | Error _ -> ());
  (* /128 maxLength is fine for v6. *)
  ignore (Testutil.check_ok (Vrp.make (p "2001:db8::/32") ~max_len:128 (a 1)))

let test_vrp_semantics () =
  let v = Vrp.make_exn (p "168.122.0.0/16") ~max_len:24 (a 111) in
  Alcotest.(check bool) "covers subprefix" true (Vrp.covers v (p "168.122.5.0/24"));
  Alcotest.(check bool) "covers beyond maxlen too" true (Vrp.covers v (p "168.122.0.0/28"));
  Alcotest.(check bool) "no cover outside" false (Vrp.covers v (p "168.123.0.0/24"));
  Alcotest.(check bool) "authorizes within maxlen" true (Vrp.authorized v (p "168.122.5.0/24"));
  Alcotest.(check bool) "no auth beyond maxlen" false (Vrp.authorized v (p "168.122.0.0/25"));
  Alcotest.(check bool) "matches right origin" true (Vrp.matches v (p "168.122.5.0/24") (a 111));
  Alcotest.(check bool) "no match wrong origin" false (Vrp.matches v (p "168.122.5.0/24") (a 666));
  (* AS0 VRPs never match (RFC 6483). *)
  let v0 = Vrp.make_exn (p "10.0.0.0/8") ~max_len:32 Asnum.zero in
  Alcotest.(check bool) "AS0 never matches" false (Vrp.matches v0 (p "10.0.0.0/8") Asnum.zero)

let test_vrp_string () =
  let v = Vrp.make_exn (p "168.122.0.0/16") ~max_len:24 (a 111) in
  Alcotest.(check string) "with maxlen" "168.122.0.0/16-24 AS111" (Vrp.to_string v);
  let e = Vrp.exact (p "10.0.0.0/8") (a 1) in
  Alcotest.(check string) "without maxlen" "10.0.0.0/8 AS1" (Vrp.to_string e);
  Alcotest.check Testutil.vrp "parse with maxlen" v
    (Testutil.check_ok (Vrp.of_string "168.122.0.0/16-24 AS111"));
  Alcotest.check Testutil.vrp "parse without" e (Testutil.check_ok (Vrp.of_string "10.0.0.0/8 AS1"));
  List.iter
    (fun s ->
      match Vrp.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "10.0.0.0/8"; "10.0.0.0/8-40 AS1"; "10.0.0.0/8-7 AS1"; "10.0.0.0/8 AS1 extra" ]

(* --- ROAs --- *)

let test_roa_make () =
  let roa =
    Testutil.check_ok
      (Roa.of_simple (a 111) [ ("168.122.0.0/16", None); ("168.122.225.0/24", None) ])
  in
  Alcotest.(check int) "entries" 2 (List.length (Roa.entries roa));
  Alcotest.(check bool) "no maxlen" false (Roa.uses_max_len roa);
  (match Roa.make (a 1) [] with
   | Ok _ -> Alcotest.fail "empty ROA accepted"
   | Error _ -> ());
  (match Roa.of_simple (a 1) [ ("10.0.0.0/16", Some 8) ] with
   | Ok _ -> Alcotest.fail "bad maxLength accepted"
   | Error _ -> ());
  (* Duplicate entries collapse. *)
  let dup = Testutil.check_ok (Roa.of_simple (a 1) [ ("10.0.0.0/8", None); ("10.0.0.0/8", None) ]) in
  Alcotest.(check int) "dedup" 1 (List.length (Roa.entries dup))

let test_roa_authorization () =
  let roa = Testutil.check_ok (Roa.of_simple (a 111) [ ("168.122.0.0/16", Some 24) ]) in
  Alcotest.(check bool) "authorizes /24" true (Roa.authorized roa (p "168.122.0.0/24") (a 111));
  Alcotest.(check bool) "not /25" false (Roa.authorized roa (p "168.122.0.0/25") (a 111));
  Alcotest.(check bool) "not other AS" false (Roa.authorized roa (p "168.122.0.0/24") (a 666));
  let vrps = Roa.vrps roa in
  Alcotest.(check int) "one VRP" 1 (List.length vrps);
  Alcotest.check Testutil.vrp "vrp" (Vrp.make_exn (p "168.122.0.0/16") ~max_len:24 (a 111))
    (List.hd vrps)

let test_roa_pp () =
  let roa = Testutil.check_ok (Roa.of_simple (a 111) [ ("168.122.0.0/16", Some 24) ]) in
  Alcotest.(check string) "pp" "ROA:({168.122.0.0/16-24}, AS111)" (Format.asprintf "%a" Roa.pp roa)

(* --- RFC 6482 DER profile --- *)

let test_roa_der_roundtrip_simple () =
  let roa =
    Testutil.check_ok
      (Roa.of_simple (a 31283)
         [ ("87.254.32.0/19", Some 20); ("87.254.32.0/21", None); ("2001:db8::/32", Some 48) ])
  in
  let bytes = Rpki.Roa_der.encode roa in
  Alcotest.check Testutil.roa "roundtrip" roa (Testutil.check_ok (Rpki.Roa_der.decode bytes))

let test_roa_der_rejects () =
  (* Valid DER that is not a valid ROA: wrong shapes must fail
     gracefully. *)
  List.iter
    (fun (name, v) ->
      match Rpki.Roa_der.decode (Asn1.Der.encode v) with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error _ -> ())
    [ ("not a sequence", Asn1.Der.Integer 1L);
      ("empty sequence", Asn1.Der.Sequence []);
      ("missing blocks", Asn1.Der.Sequence [ Asn1.Der.Integer 1L ]);
      ( "empty ipAddrBlocks",
        Asn1.Der.Sequence [ Asn1.Der.Integer 1L; Asn1.Der.Sequence [] ] );
      ( "bad family",
        Asn1.Der.Sequence
          [ Asn1.Der.Integer 1L;
            Asn1.Der.Sequence
              [ Asn1.Der.Sequence
                  [ Asn1.Der.Octet_string "\x00\x09";
                    Asn1.Der.Sequence [ Asn1.Der.Sequence [ Asn1.Der.Bit_string (0, "") ] ] ] ] ] );
      ( "asID out of range",
        Asn1.Der.Sequence [ Asn1.Der.Integer (-5L); Asn1.Der.Sequence [] ] ) ];
  match Rpki.Roa_der.decode "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let gen_roa =
  let open QCheck2.Gen in
  let* asn_i = int_bound 100_000 in
  let* entries =
    list_size (int_range 1 10)
      (let* q = Testutil.gen_clustered_v4_prefix in
       let* use_ml = bool in
       let* extra = int_bound (Pfx.addr_bits q - Pfx.length q) in
       return { Roa.prefix = q; max_len = (if use_ml then Some (Pfx.length q + extra) else None) })
  in
  return (Roa.make_exn (Asnum.of_int asn_i) entries)

let prop_roa_der_roundtrip =
  QCheck2.Test.make ~name:"RFC 6482 encode/decode roundtrip" ~count:300 gen_roa (fun roa ->
      match Rpki.Roa_der.decode (Rpki.Roa_der.encode roa) with
      | Ok roa' ->
        (* Entries with maxLength equal to prefix length may normalize;
           compare via the VRP view, which is the semantics. *)
        List.equal Vrp.equal (Roa.vrps roa) (Roa.vrps roa')
      | Error _ -> false)

(* [Vrp.compare] compares V4 payloads and ASNs as ints inline; it must
   order exactly as the composition of the per-field orders does. The
   pairs tie on the prefix (MOAS), on prefix and maxLength, or on
   nothing, across both families. *)
let reference_compare (x : Vrp.t) (y : Vrp.t) =
  let c = Pfx.compare x.Vrp.prefix y.Vrp.prefix in
  if c <> 0 then c
  else
    let c = Int.compare x.Vrp.max_len y.Vrp.max_len in
    if c <> 0 then c else Asnum.compare x.Vrp.asn y.Vrp.asn

let gen_vrp_pair =
  let open QCheck2.Gen in
  let* v = Testutil.gen_vrp in
  let* w = Testutil.gen_vrp in
  let* asn = Testutil.gen_small_asn in
  let* tie = int_bound 2 in
  let w =
    match tie with
    | 0 -> w
    | 1 -> Vrp.exact v.Vrp.prefix asn
    | _ -> { v with Vrp.asn }
  in
  return (v, w)

let prop_vrp_compare_reference =
  QCheck2.Test.make ~name:"Vrp.compare orders as prefix, max_len, ASN" ~count:1000
    gen_vrp_pair (fun (v, w) ->
      let sign c = Int.compare c 0 in
      sign (Vrp.compare v w) = sign (reference_compare v w)
      && sign (Vrp.compare w v) = sign (reference_compare w v)
      && Vrp.compare v v = 0)

let prop_roa_der_total =
  QCheck2.Test.make ~name:"ROA decoder total on random bytes" ~count:500
    QCheck2.Gen.(string_size (int_bound 80))
    (fun s -> match Rpki.Roa_der.decode s with Ok _ | Error _ -> true)

let () =
  Alcotest.run "rpki.objects"
    [ ( "asnum",
        [ Alcotest.test_case "parse" `Quick test_asnum_parse;
          Alcotest.test_case "bounds" `Quick test_asnum_bounds ] );
      ( "vrp",
        [ Alcotest.test_case "make" `Quick test_vrp_make;
          Alcotest.test_case "semantics" `Quick test_vrp_semantics;
          Alcotest.test_case "string" `Quick test_vrp_string;
          QCheck_alcotest.to_alcotest prop_vrp_compare_reference ] );
      ( "roa",
        [ Alcotest.test_case "make" `Quick test_roa_make;
          Alcotest.test_case "authorization" `Quick test_roa_authorization;
          Alcotest.test_case "pp" `Quick test_roa_pp ] );
      ( "roa_der",
        [ Alcotest.test_case "roundtrip" `Quick test_roa_der_roundtrip_simple;
          Alcotest.test_case "rejects" `Quick test_roa_der_rejects ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_roa_der_roundtrip; prop_roa_der_total ] ) ]
