(* RFC 6488-style signed-object envelopes and certificate DER. *)

module So = Rpki.Signed_object
module Cert = Rpki.Cert
module Merkle = Hashcrypto.Merkle

let p = Testutil.p4
let a = Testutil.a

let ca_key, ca_pub = Merkle.generate ~seed:"so-test-ca" ~height:6

let ee_pair name =
  let key, pub = Merkle.generate ~seed:("so-test-ee-" ^ name) ~height:0 in
  let cert =
    Cert.issue ~subject:("ee:" ^ name) ~serial:7 ~resources:[ p "168.122.0.0/16" ]
      ~as_resources:[ a 111 ] ~pubkey:pub ~issuer_name:"ca" ~issuer_key:ca_key
  in
  (key, cert)

let roa = lazy (Testutil.check_ok (Rpki.Roa.of_simple (a 111) [ ("168.122.0.0/16", Some 24) ]))

(* A ROA signed into an envelope, and a fetched file decoded and
   verified: the two ends the repository and its relying party run. *)
let make_roa roa ~ee_key ~ee_cert =
  So.make ~content_type:So.roa_content_type ~econtent:(Rpki.Roa_der.encode roa) ~ee_key ~ee_cert

let verify_bytes bytes ~issuer_pubkey = Result.bind (So.decode bytes) (So.verify ~issuer_pubkey)

let test_cert_der_roundtrip () =
  let _, cert = ee_pair "roundtrip" in
  let decoded = Testutil.check_ok (Cert.of_der (Cert.to_der cert)) in
  Alcotest.(check string) "subject" cert.Cert.subject decoded.Cert.subject;
  Alcotest.(check string) "issuer" cert.Cert.issuer decoded.Cert.issuer;
  Alcotest.(check int) "serial" cert.Cert.serial decoded.Cert.serial;
  Alcotest.(check (list Testutil.prefix)) "resources" cert.Cert.resources decoded.Cert.resources;
  Alcotest.(check (list Testutil.asn)) "as_resources" cert.Cert.as_resources decoded.Cert.as_resources;
  (* And the decoded certificate still verifies against the issuer. *)
  Alcotest.(check bool) "signature survives" true
    (Cert.verify_signature decoded ~issuer_pubkey:ca_pub)

let test_cert_der_rejects_garbage () =
  (match Cert.of_der "garbage" with
   | Ok _ -> Alcotest.fail "garbage accepted"
   | Error _ -> ());
  match Cert.of_der (Asn1.Der.encode (Asn1.Der.Sequence [ Asn1.Der.Integer 1L ])) with
  | Ok _ -> Alcotest.fail "wrong shape accepted"
  | Error _ -> ()

let test_envelope_roundtrip_and_verify () =
  let ee_key, ee_cert = ee_pair "env" in
  let obj = make_roa (Lazy.force roa) ~ee_key ~ee_cert in
  let wire = So.encode obj in
  let verified = Testutil.check_ok (verify_bytes wire ~issuer_pubkey:ca_pub) in
  Alcotest.check Testutil.roa "roa round-trips" (Lazy.force roa) verified.So.roa;
  Alcotest.(check string) "ee cert" ee_cert.Cert.subject verified.So.ee_cert.Cert.subject

let test_verify_rejects_wrong_issuer () =
  let ee_key, ee_cert = ee_pair "wrong-issuer" in
  let obj = make_roa (Lazy.force roa) ~ee_key ~ee_cert in
  let _, other_pub = Merkle.generate ~seed:"not-the-ca" ~height:1 in
  match verify_bytes (So.encode obj) ~issuer_pubkey:other_pub with
  | Ok _ -> Alcotest.fail "verified under the wrong issuer"
  | Error e -> Alcotest.(check bool) "EE cert blamed" true (String.length e > 0)

let test_verify_rejects_mismatched_key () =
  (* Signature by a key other than the one in the EE cert. *)
  let _, ee_cert = ee_pair "mismatch" in
  let other_key, _ = Merkle.generate ~seed:"other-ee" ~height:0 in
  let obj = make_roa (Lazy.force roa) ~ee_key:other_key ~ee_cert in
  match verify_bytes (So.encode obj) ~issuer_pubkey:ca_pub with
  | Ok _ -> Alcotest.fail "mismatched signature accepted"
  | Error _ -> ()

let test_verify_rejects_wrong_content_type () =
  let ee_key, ee_cert = ee_pair "ct" in
  let obj = make_roa (Lazy.force roa) ~ee_key ~ee_cert in
  let bad = { obj with So.content_type = [ 1; 2; 3 ] } in
  match So.verify (Testutil.check_ok (So.decode (So.encode bad))) ~issuer_pubkey:ca_pub with
  | Ok _ -> Alcotest.fail "wrong content type accepted"
  | Error e -> Alcotest.(check string) "reason" "unexpected content type" e

let test_bitflip_never_verifies () =
  (* Flip every byte of the wire form: decoding may fail or succeed,
     verification must never succeed. *)
  let ee_key, ee_cert = ee_pair "bitflip" in
  let wire = So.encode (make_roa (Lazy.force roa) ~ee_key ~ee_cert) in
  let ok = ref true in
  (* Step through the wire (every 7th byte keeps the test fast while
     covering all regions: OID, eContent, cert, signature). *)
  let i = ref 0 in
  while !i < String.length wire do
    let b = Bytes.of_string wire in
    Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0x40));
    (match verify_bytes (Bytes.to_string b) ~issuer_pubkey:ca_pub with
     | Ok _ -> ok := false
     | Error _ -> ());
    i := !i + 7
  done;
  Alcotest.(check bool) "no flipped byte verifies" true !ok

let test_repository_publishes_parseable_bytes () =
  let repo = Rpki.Repository.create ~seed:"so-repo" "ta" in
  let ca =
    Testutil.check_ok
      (Rpki.Repository.add_ca repo ~parent:(Rpki.Repository.root repo) ~name:"ca"
         ~resources:[ p "168.122.0.0/16" ] ~as_resources:[ a 111 ] ~height:2 ())
  in
  let name = Testutil.check_ok (Rpki.Repository.issue_roa repo ca (Lazy.force roa)) in
  let wire = Testutil.check_ok (Rpki.Repository.object_bytes repo name) in
  let obj = Testutil.check_ok (So.decode wire) in
  Alcotest.(check bool) "roa content type" true (obj.So.content_type = So.roa_content_type);
  Alcotest.check Testutil.roa "payload decodes"
    (Lazy.force roa)
    (Testutil.check_ok (Rpki.Roa_der.decode obj.So.econtent))

let prop_envelope_roundtrip =
  let gen_roa =
    let open QCheck2.Gen in
    let* asn_i = int_range 1 65000 in
    let* entries =
      list_size (int_range 1 6)
        (let* q = Testutil.gen_clustered_v4_prefix in
         let* ml = bool in
         let* extra = int_bound (32 - Netaddr.Pfx.length q) in
         return
           { Rpki.Roa.prefix = q;
             max_len = (if ml then Some (Netaddr.Pfx.length q + extra) else None) })
    in
    return (Rpki.Roa.make_exn (Rpki.Asnum.of_int asn_i) entries)
  in
  QCheck2.Test.make ~name:"envelope encode/decode/verify roundtrip" ~count:40 gen_roa
    (fun roa ->
      let ee_key, ee_cert = ee_pair "prop" in
      let obj = make_roa roa ~ee_key ~ee_cert in
      match verify_bytes (So.encode obj) ~issuer_pubkey:ca_pub with
      | Ok v ->
        List.equal Rpki.Vrp.equal (Rpki.Roa.vrps roa) (Rpki.Roa.vrps v.So.roa)
      | Error _ -> false)

let () =
  Alcotest.run "rpki.signed_object"
    [ ( "cert der",
        [ Alcotest.test_case "roundtrip" `Quick test_cert_der_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_cert_der_rejects_garbage ] );
      ( "envelope",
        [ Alcotest.test_case "roundtrip + verify" `Quick test_envelope_roundtrip_and_verify;
          Alcotest.test_case "wrong issuer" `Quick test_verify_rejects_wrong_issuer;
          Alcotest.test_case "mismatched key" `Quick test_verify_rejects_mismatched_key;
          Alcotest.test_case "wrong content type" `Quick test_verify_rejects_wrong_content_type;
          Alcotest.test_case "bit flips never verify" `Slow test_bitflip_never_verifies;
          Alcotest.test_case "repository bytes parse" `Quick test_repository_publishes_parseable_bytes ] );
      ( "properties", List.map QCheck_alcotest.to_alcotest [ prop_envelope_roundtrip ] ) ]
