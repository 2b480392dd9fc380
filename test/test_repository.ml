(* The simulated publication point and relying-party validator:
   honest paths validate, every attack path is rejected with a
   diagnostic. *)

module Repo = Rpki.Repository
module Roa = Rpki.Roa

let p = Testutil.p4
let a = Testutil.a

let fresh ?(seed = "test") () =
  let repo = Repo.create ~seed "ta.example" in
  let arin =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:(Repo.root repo) ~name:"arin"
         ~resources:[ p "168.0.0.0/8"; p "10.0.0.0/8" ]
         ~as_resources:[ a 111; a 31283 ] ~height:4 ())
  in
  (repo, arin)

let roa_bu () =
  Testutil.check_ok (Roa.of_simple (a 111) [ ("168.122.0.0/16", None); ("168.122.225.0/24", None) ])

let test_issue_and_validate () =
  let repo, arin = fresh () in
  let _name = Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())) in
  let outcome = Repo.validate repo in
  Alcotest.(check int) "one valid ROA" 1 (List.length outcome.Repo.valid_roas);
  Alcotest.(check int) "no rejections" 0 (List.length outcome.Repo.rejections);
  Alcotest.(check (list string)) "nothing missing" [] outcome.Repo.missing_from_manifest;
  Alcotest.check Testutil.roa "same ROA back" (roa_bu ()) (List.hd outcome.Repo.valid_roas)

let test_scan_roas () =
  let repo, arin = fresh () in
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())));
  let vrps, rejections = Rpki.Scan_roas.scan repo in
  Alcotest.(check int) "no rejections" 0 (List.length rejections);
  Alcotest.(check (list Testutil.vrp))
    "vrps"
    [ Rpki.Vrp.exact (p "168.122.0.0/16") (a 111);
      Rpki.Vrp.exact (p "168.122.225.0/24") (a 111) ]
    vrps

let test_issuer_resource_check () =
  let repo, arin = fresh () in
  (* ARIN does not hold 8.0.0.0/8. *)
  (match Repo.issue_roa repo arin (Testutil.check_ok (Roa.of_simple (a 111) [ ("8.8.8.0/24", None) ])) with
   | Ok _ -> Alcotest.fail "over-claiming ROA issued"
   | Error _ -> ());
  (* Nor AS 666. *)
  match Repo.issue_roa repo arin (Testutil.check_ok (Roa.of_simple (a 666) [ ("10.0.0.0/16", None) ])) with
  | Ok _ -> Alcotest.fail "unauthorized asID issued"
  | Error _ -> ()

let test_overclaiming_rejected_by_rp () =
  (* Even if a CA misbehaves and signs beyond its resources, the
     relying party rejects the object. *)
  let repo, arin = fresh () in
  let name = Repo.issue_roa_unchecked repo arin (Testutil.check_ok (Roa.of_simple (a 111) [ ("9.9.9.0/24", None) ])) in
  let outcome = Repo.validate repo in
  Alcotest.(check int) "no valid ROAs" 0 (List.length outcome.Repo.valid_roas);
  (match outcome.Repo.rejections with
   | [ r ] -> Alcotest.(check string) "right object" name r.Repo.object_name
   | l -> Alcotest.failf "expected one rejection, got %d" (List.length l))

let test_overclaiming_ca_rejected () =
  let repo, arin = fresh () in
  (* A child CA claiming more than its parent: installable only via
     the unchecked API, and then every object under it dies. *)
  let rogue =
    Repo.add_ca_unchecked repo ~parent:arin ~name:"rogue"
      ~resources:[ p "0.0.0.0/1" ] ~as_resources:[ a 111 ] ~height:2 ()
  in
  ignore (Testutil.check_ok (Repo.issue_roa repo rogue (Testutil.check_ok (Roa.of_simple (a 111) [ ("1.2.3.0/24", None) ]))));
  let outcome = Repo.validate repo in
  Alcotest.(check int) "no valid ROAs" 0 (List.length outcome.Repo.valid_roas);
  Alcotest.(check int) "rejected" 1 (List.length outcome.Repo.rejections)

let test_tampered_object_rejected () =
  let repo, arin = fresh () in
  let name = Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())) in
  Testutil.check_ok (Repo.tamper repo name);
  let outcome = Repo.validate repo in
  Alcotest.(check int) "no valid ROAs" 0 (List.length outcome.Repo.valid_roas);
  match outcome.Repo.rejections with
  | [ r ] ->
    Alcotest.(check bool) "manifest digest caught it" true
      (String.length r.Repo.reason > 0)
  | l -> Alcotest.failf "expected one rejection, got %d" (List.length l)

let test_withheld_from_manifest () =
  let repo, arin = fresh () in
  let name = Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())) in
  Testutil.check_ok (Repo.drop_from_manifest repo name);
  let outcome = Repo.validate repo in
  Alcotest.(check int) "not valid" 0 (List.length outcome.Repo.valid_roas);
  Alcotest.(check int) "flagged" 1 (List.length outcome.Repo.rejections)

let test_ca_chain_depth () =
  let repo, arin = fresh () in
  let child =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:arin ~name:"bu" ~resources:[ p "168.122.0.0/16" ]
         ~as_resources:[ a 111 ] ~height:2 ())
  in
  ignore (Testutil.check_ok (Repo.issue_roa repo child (roa_bu ())));
  let outcome = Repo.validate repo in
  Alcotest.(check int) "valid through 3-level chain" 1 (List.length outcome.Repo.valid_roas);
  (* The grandchild cannot claim outside the child's space. *)
  match
    Repo.add_ca repo ~parent:child ~name:"bu2" ~resources:[ p "10.0.0.0/16" ] ~as_resources:[]
      ~height:1 ()
  with
  | Ok _ -> Alcotest.fail "child resources exceed parent"
  | Error _ -> ()

let test_key_exhaustion () =
  let repo = Repo.create ~seed:"tiny" "ta" in
  let ca =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:(Repo.root repo) ~name:"small" ~resources:[ p "10.0.0.0/8" ]
         ~as_resources:[ a 1 ] ~height:1 ())
  in
  let roa = Testutil.check_ok (Roa.of_simple (a 1) [ ("10.0.0.0/16", None) ]) in
  (* Height 1 = capacity 2, one of which stays reserved for the
     manifest signature: a single ROA fits, a second must fail
     cleanly... *)
  ignore (Testutil.check_ok (Repo.issue_roa repo ca roa));
  (match Repo.issue_roa repo ca roa with
   | Ok _ -> Alcotest.fail "signed beyond key capacity"
   | Error _ -> ());
  (* ...and the reserve lets the manifest sign, keeping the published
     object valid. *)
  let outcome = Repo.validate repo in
  Alcotest.(check int) "prior object fine" 1 (List.length outcome.Repo.valid_roas)

let test_revocation () =
  let repo, arin = fresh () in
  let name1 = Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())) in
  let roa2 = Testutil.check_ok (Roa.of_simple (a 31283) [ ("10.1.0.0/16", None) ]) in
  let _name2 = Testutil.check_ok (Repo.issue_roa repo arin roa2) in
  Testutil.check_ok (Repo.revoke repo name1);
  let outcome = Repo.validate repo in
  Alcotest.(check int) "one ROA survives" 1 (List.length outcome.Repo.valid_roas);
  Alcotest.check Testutil.roa "the unrevoked one" roa2 (List.hd outcome.Repo.valid_roas);
  (match outcome.Repo.rejections with
   | [ r ] ->
     Alcotest.(check string) "right object" name1 r.Repo.object_name;
     Alcotest.(check bool) "CRL named in reason" true
       (String.length r.Repo.reason > 0)
   | l -> Alcotest.failf "expected one rejection, got %d" (List.length l));
  (* Revoking twice is idempotent; revoking garbage fails. *)
  Testutil.check_ok (Repo.revoke repo name1);
  match Repo.revoke repo "nonexistent" with
  | Ok () -> Alcotest.fail "revoked a nonexistent object"
  | Error _ -> ()

let test_manifest_tamper () =
  let repo, arin = fresh () in
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())));
  Testutil.check_ok (Repo.tamper_manifest repo arin);
  let outcome = Repo.validate repo in
  Alcotest.(check int) "nothing valid under a broken manifest" 0
    (List.length outcome.Repo.valid_roas);
  Alcotest.(check int) "object rejected" 1 (List.length outcome.Repo.rejections)

let test_manifest_staleness () =
  let repo, arin = fresh () in
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())));
  let outcome = Repo.validate repo in
  Alcotest.(check int) "valid while fresh" 1 (List.length outcome.Repo.valid_roas);
  (* Push the clock past the manifest's nextUpdate window. *)
  Repo.advance_time repo 10_000;
  let outcome = Repo.validate repo in
  Alcotest.(check int) "stale manifest kills the CA's objects" 0
    (List.length outcome.Repo.valid_roas);
  (* Publishing anything re-signs a fresh manifest. *)
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (roa_bu ())));
  let outcome = Repo.validate repo in
  Alcotest.(check int) "fresh manifest revives them" 2 (List.length outcome.Repo.valid_roas)

let test_manifest_econtent_roundtrip () =
  let digest s = Hashcrypto.Sha256.digest s in
  let mft =
    Rpki.Manifest.make ~number:7 ~this_update:100 ~next_update:200
      [ { Rpki.Manifest.file = "b.roa"; digest = digest "b" };
        { Rpki.Manifest.file = "a.roa"; digest = digest "a" } ]
  in
  let decoded = Testutil.check_ok (Rpki.Manifest.decode_econtent (Rpki.Manifest.encode_econtent mft)) in
  Alcotest.(check bool) "roundtrip" true (Rpki.Manifest.equal mft decoded);
  (* Entries are sorted by file name. *)
  Alcotest.(check (list string)) "sorted" [ "a.roa"; "b.roa" ]
    (List.map (fun (e : Rpki.Manifest.entry) -> e.Rpki.Manifest.file) decoded.Rpki.Manifest.entries);
  Alcotest.(check (option string)) "digest_of" (Some (digest "a"))
    (Rpki.Manifest.digest_of decoded "a.roa");
  Alcotest.(check (option string)) "digest_of missing" None (Rpki.Manifest.digest_of decoded "c.roa");
  Alcotest.(check bool) "stale" true (Rpki.Manifest.stale decoded ~now:201);
  Alcotest.(check bool) "fresh" false (Rpki.Manifest.stale decoded ~now:200);
  (match Rpki.Manifest.decode_econtent "junk" with
   | Ok _ -> Alcotest.fail "junk accepted"
   | Error _ -> ());
  match Rpki.Manifest.make ~number:1 ~this_update:5 ~next_update:4 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted window accepted"

let test_determinism_and_size () =
  let repo1, arin1 = fresh ~seed:"same-seed" () in
  let repo2, arin2 = fresh ~seed:"same-seed" () in
  ignore (Testutil.check_ok (Repo.issue_roa repo1 arin1 (roa_bu ())));
  ignore (Testutil.check_ok (Repo.issue_roa repo2 arin2 (roa_bu ())));
  Alcotest.(check string) "deterministic TA key"
    (Hashcrypto.Sha256.to_hex (Repo.trust_anchor_key_digest repo1))
    (Hashcrypto.Sha256.to_hex (Repo.trust_anchor_key_digest repo2));
  Alcotest.(check int) "same wire size" (Repo.size_on_wire repo1) (Repo.size_on_wire repo2);
  Alcotest.(check bool) "size is positive" true (Repo.size_on_wire repo1 > 0);
  Alcotest.(check int) "object count" 1 (Repo.object_count repo1)

(* --- the chain walk, pinned -------------------------------------------

   These hold the relying party's chain checks to the outcomes of the
   walk that re-checked a CA's chain for every object, recorded from it
   verbatim: a verdict computed once per CA and shared must reject the
   same objects, for the same reasons, in the same order. *)

let roa_of asn pfxs = Testutil.check_ok (Roa.of_simple (a asn) (List.map (fun s -> (s, None)) pfxs))
let rejection_list o = List.map (fun r -> (r.Repo.object_name, r.Repo.reason)) o.Repo.rejections

(* [levels] CAs under the trust anchor, each certifying the next, and
   one ROA under the deepest. *)
let deep_chain levels =
  let repo = Repo.create ~ta_height:2 ~seed:"deep" "ta" in
  let rec grow parent i =
    if i > levels then parent
    else
      grow
        (Testutil.check_ok
           (Repo.add_ca repo ~parent ~name:(Printf.sprintf "ca%d" i) ~resources:[ p "10.0.0.0/8" ]
              ~as_resources:[ a 64500 ] ~height:1 ()))
        (i + 1)
  in
  let deepest = grow (Repo.root repo) 1 in
  let name = Testutil.check_ok (Repo.issue_roa repo deepest (roa_of 64500 [ "10.1.0.0/16" ])) in
  (repo, name)

let test_chain_depth_limit () =
  let outcome = Repo.validate (fst (deep_chain 32)) in
  Alcotest.(check int) "valid 32 levels down" 1 (List.length outcome.Repo.valid_roas);
  Alcotest.(check (list (pair string string))) "no rejections" [] (rejection_list outcome);
  let repo, name = deep_chain 33 in
  let outcome = Repo.validate repo in
  Alcotest.(check int) "nothing valid 33 levels down" 0 (List.length outcome.Repo.valid_roas);
  Alcotest.(check (list (pair string string)))
    "too deep" [ (name, "certificate chain too deep") ] (rejection_list outcome)

let check_outcome outcome ~valid ~rejections =
  Alcotest.(check (list Testutil.roa)) "valid_roas" valid outcome.Repo.valid_roas;
  Alcotest.(check (list (pair string string))) "rejections" rejections (rejection_list outcome);
  Alcotest.(check (list string)) "missing_from_manifest" [] outcome.Repo.missing_from_manifest

let test_pinned_outcome () =
  (* One honest RIR CA and one CA forced in beyond the RIR's space,
     three ROAs each, published interleaved. *)
  let repo = Repo.create ~ta_height:2 ~seed:"pinned-walk" "ta" in
  let rir =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:(Repo.root repo) ~name:"rir"
         ~resources:[ p "10.0.0.0/8"; p "192.0.2.0/24" ]
         ~as_resources:[ a 64500; a 64501; a 64502 ] ~height:3 ())
  in
  let rogue =
    Repo.add_ca_unchecked repo ~parent:rir ~name:"rogue" ~resources:[ p "0.0.0.0/1" ]
      ~as_resources:[ a 64500; a 64666 ] ~height:3 ()
  in
  List.iter
    (fun (ca, roa) -> ignore (Testutil.check_ok (Repo.issue_roa repo ca roa)))
    [ (rir, roa_of 64500 [ "10.0.0.0/16"; "10.0.1.0/24" ]);
      (rogue, roa_of 64666 [ "8.8.8.0/24" ]);
      (rir, roa_of 64501 [ "192.0.2.0/24" ]);
      (rogue, roa_of 64500 [ "10.0.0.0/16" ]);
      (rogue, roa_of 64666 [ "1.1.1.0/24"; "1.0.0.0/24" ]);
      (rir, roa_of 64502 [ "10.2.0.0/16" ]) ];
  check_outcome (Repo.validate repo)
    ~valid:
      [ roa_of 64502 [ "10.2.0.0/16" ];
        roa_of 64501 [ "192.0.2.0/24" ];
        roa_of 64500 [ "10.0.0.0/16"; "10.0.1.0/24" ] ]
    ~rejections:
      [ ("rogue/roa-12.roa", "CA \"rogue\" overclaims resources");
        ("rogue/roa-10.roa", "CA \"rogue\" overclaims resources");
        ("rogue/roa-6.roa", "CA \"rogue\" overclaims resources") ]

let test_inherited_verdict () =
  (* A CA properly certified by an overclaiming CA fails with its
     ancestor's reason. *)
  let repo = Repo.create ~ta_height:2 ~seed:"inherited" "ta" in
  let rir =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:(Repo.root repo) ~name:"rir" ~resources:[ p "10.0.0.0/8" ]
         ~as_resources:[ a 64500 ] ~height:3 ())
  in
  let rogue =
    Repo.add_ca_unchecked repo ~parent:rir ~name:"rogue" ~resources:[ p "0.0.0.0/1" ]
      ~as_resources:[ a 64500 ] ~height:3 ()
  in
  let child =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:rogue ~name:"child" ~resources:[ p "10.0.0.0/16" ]
         ~as_resources:[ a 64500 ] ~height:2 ())
  in
  List.iter
    (fun (ca, roa) -> ignore (Testutil.check_ok (Repo.issue_roa repo ca roa)))
    [ (child, roa_of 64500 [ "10.0.0.0/24" ]);
      (rir, roa_of 64500 [ "10.9.0.0/16" ]);
      (rogue, roa_of 64500 [ "10.8.0.0/16" ]) ];
  check_outcome (Repo.validate repo)
    ~valid:[ roa_of 64500 [ "10.9.0.0/16" ] ]
    ~rejections:
      [ ("rogue/roa-9.roa", "CA \"rogue\" overclaims resources");
        ("child/roa-5.roa", "CA \"rogue\" overclaims resources") ]

let test_verdicts_per_walk () =
  (* Re-certifying a CA beyond its parent's space between two walks:
     the second walk must judge the new certificate, not remember the
     first walk's verdict. *)
  let repo, arin = fresh () in
  let sub =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:arin ~name:"sub" ~resources:[ p "168.122.0.0/16" ]
         ~as_resources:[ a 111 ] ~height:2 ())
  in
  let name = Testutil.check_ok (Repo.issue_roa repo sub (roa_bu ())) in
  Alcotest.(check int) "valid at first" 1 (List.length (Repo.validate repo).Repo.valid_roas);
  ignore
    (Repo.add_ca_unchecked repo ~parent:arin ~name:"sub" ~resources:[ p "0.0.0.0/1" ]
       ~as_resources:[ a 111 ] ~height:2 ());
  Alcotest.(check (list (pair string string)))
    "re-judged" [ (name, "CA \"sub\" overclaims resources") ]
    (rejection_list (Repo.validate repo))

(* --- every kind through the one object check ----------------------------

   The repository publishes one kind of signed object, the ROA; its EE
   certificate, the CA certificates and the signed manifests are the
   other kinds a walk reads. *)

let test_trust_anchor_signs_every_kind () =
  (* The trust anchor holds every AS number, so it may sign a ROA for
     one, and the relying party accepts it. *)
  let repo = Repo.create ~ta_height:3 ~seed:"ta-signs" "ta" in
  let roa = roa_of 64500 [ "192.0.2.0/24" ] in
  ignore (Testutil.check_ok (Repo.issue_roa repo (Repo.root repo) roa));
  let outcome = Repo.validate repo in
  Alcotest.(check (list Testutil.roa)) "valid_roas" [ roa ] outcome.Repo.valid_roas;
  Alcotest.(check (list (pair string string))) "no rejections" [] (rejection_list outcome)

let test_every_kind_pinned () =
  (* One RIR CA publishes three ROAs (one over both families) and a ROA
     forced beyond its resources, then revokes one. Names, bytes, size
     (certificates and manifests included) and verdicts are pinned:
     signing, publishing and judging must not move them. *)
  let repo = Repo.create ~ta_height:2 ~seed:"every-kind" "ta" in
  let rir =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:(Repo.root repo) ~name:"rir"
         ~resources:[ p "10.0.0.0/8"; p "2001:db8::/32" ]
         ~as_resources:[ a 64500; a 64501; a 64502 ] ~height:4 ())
  in
  let roa1 = roa_of 64500 [ "10.0.0.0/16"; "2001:db8::/48" ] in
  let roa3 = roa_of 64502 [ "10.2.0.0/16"; "2001:db8:2::/48" ] in
  ignore (Testutil.check_ok (Repo.issue_roa repo rir roa1));
  let roa2 = Testutil.check_ok (Repo.issue_roa repo rir (roa_of 64501 [ "10.1.0.0/16" ])) in
  ignore (Testutil.check_ok (Repo.issue_roa repo rir roa3));
  ignore (Repo.issue_roa_unchecked repo rir (roa_of 64500 [ "11.0.0.0/8" ]));
  Testutil.check_ok (Repo.revoke repo roa2);
  let outcome = Repo.validate repo in
  Alcotest.(check (list (pair string string)))
    "names and SHA-256"
    [ ("rir/roa-3.roa", "0130eb40f636bd2c7ac284459310958f2c84251d996524f52e7ab548f087ead0");
      ("rir/roa-5.roa", "1fdeb0c2f2bcd8a58a184833c3e38a92616a9cfcf20ed2e8ad5de3737db56224");
      ("rir/roa-7.roa", "aa154cf4c0275b5f6649c1479a0d6408c0dda38f2696236f3a00fc6f1ae29014");
      ("rir/roa-9.roa", "b62b65ebd83506e8ef2c5a16ed4686df57b970e87e903e5fb7bb6409711670d5") ]
    (List.map
       (fun name ->
         ( name,
           Hashcrypto.Sha256.(to_hex (digest (Testutil.check_ok (Repo.object_bytes repo name))))
         ))
       (Repo.object_names repo));
  Alcotest.(check int) "size_on_wire" 232_043 (Repo.size_on_wire repo);
  Alcotest.(check (list (pair string string)))
    "rejections"
    [ ("rir/roa-9.roa", "EE certificate overclaims its CA's resources");
      ("rir/roa-5.roa", "EE certificate is revoked (on the CA's CRL)") ]
    (rejection_list outcome);
  Alcotest.(check (list Testutil.roa)) "valid_roas" [ roa3; roa1 ] outcome.Repo.valid_roas;
  Alcotest.(check (list string)) "missing_from_manifest" [] outcome.Repo.missing_from_manifest

let () =
  Alcotest.run "rpki.repository"
    [ ( "honest path",
        [ Alcotest.test_case "issue and validate" `Quick test_issue_and_validate;
          Alcotest.test_case "scan_roas" `Quick test_scan_roas;
          Alcotest.test_case "3-level chain" `Quick test_ca_chain_depth;
          Alcotest.test_case "determinism and size" `Quick test_determinism_and_size ] );
      ( "rejection paths",
        [ Alcotest.test_case "issuer resource check" `Quick test_issuer_resource_check;
          Alcotest.test_case "RP rejects over-claiming ROA" `Quick test_overclaiming_rejected_by_rp;
          Alcotest.test_case "RP rejects over-claiming CA" `Quick test_overclaiming_ca_rejected;
          Alcotest.test_case "tampered object" `Quick test_tampered_object_rejected;
          Alcotest.test_case "withheld from manifest" `Quick test_withheld_from_manifest;
          Alcotest.test_case "revocation via CRL" `Quick test_revocation;
          Alcotest.test_case "tampered manifest" `Quick test_manifest_tamper;
          Alcotest.test_case "stale manifest" `Quick test_manifest_staleness;
          Alcotest.test_case "manifest econtent" `Quick test_manifest_econtent_roundtrip;
          Alcotest.test_case "key exhaustion" `Quick test_key_exhaustion ] );
      ( "chain walk",
        [ Alcotest.test_case "depth limit at 32 levels" `Quick test_chain_depth_limit;
          Alcotest.test_case "pinned outcome" `Quick test_pinned_outcome;
          Alcotest.test_case "inherited verdict" `Quick test_inherited_verdict;
          Alcotest.test_case "verdicts last one walk" `Quick test_verdicts_per_walk ] );
      ( "object check",
        [ Alcotest.test_case "trust anchor signs every kind" `Quick
            test_trust_anchor_signs_every_kind;
          Alcotest.test_case "every kind, pinned" `Quick test_every_kind_pinned ] ) ]
