(* BGPsec-lite: the extension experiment. Honest chains validate;
   every §4-style manipulation fails — closing the hole that
   non-minimal maxLength ROAs open in the RPKI-only world. *)

module Bgpsec = Bgp.Bgpsec
module Route = Bgp.Route

let p = Testutil.p4
let a = Testutil.a

let ks () =
  let ks = Bgpsec.create_keystore ~key_height:3 ~seed:"bgpsec-test" () in
  List.iter (fun n -> Bgpsec.enroll ks (a n)) [ 111; 3356; 174; 666 ];
  ks

let prefix = Testutil.p4 "168.122.0.0/16"

(* AS 111 -> AS 3356 -> AS 174, the paper's §2 propagation. *)
let honest_chain ks =
  let sr = Testutil.check_ok (Bgpsec.originate ks ~prefix ~origin:(a 111) ~to_:(a 3356)) in
  Testutil.check_ok (Bgpsec.forward ks sr ~by:(a 3356) ~to_:(a 174))

let test_honest_chain_validates () =
  let ks = ks () in
  let sr = honest_chain ks in
  Alcotest.(check (list int)) "path" [ 3356; 111 ]
    (List.map Rpki.Asnum.to_int sr.Bgpsec.route.Route.as_path);
  Testutil.check_ok (Bgpsec.validate ks sr)

let test_origin_announcement_validates () =
  let ks = ks () in
  let sr = Testutil.check_ok (Bgpsec.originate ks ~prefix ~origin:(a 111) ~to_:(a 3356)) in
  Testutil.check_ok (Bgpsec.validate ks sr)

let test_forged_origin_rejected () =
  (* The paper's §4 announcement "168.122.0.0/24: AS m, AS 111" — with
     BGPsec the victim's missing signature is fatal, maxLength or not. *)
  let ks = ks () in
  let sub = p "168.122.0.0/24" in
  let forged = Bgpsec.forge_origin ks ~prefix:sub ~attacker:(a 666) ~victim:(a 111) ~to_:(a 3356) in
  match Bgpsec.validate ks forged with
  | Ok () -> Alcotest.fail "forged origin validated"
  | Error e -> Alcotest.(check bool) "blames AS 111's signature" true (String.length e > 0)

let test_replay_to_other_neighbor_rejected () =
  (* Signatures bind the intended next hop: an announcement addressed
     to AS 3356 cannot be replayed as if addressed to AS 174. *)
  let ks = ks () in
  let sr = Testutil.check_ok (Bgpsec.originate ks ~prefix ~origin:(a 111) ~to_:(a 3356)) in
  (match Bgpsec.forward ks sr ~by:(a 174) ~to_:(a 666) with
   | Ok _ -> Alcotest.fail "wrong AS forwarded"
   | Error _ -> ());
  (* Even mutating the target directly fails validation. *)
  let hijacked = { sr with Bgpsec.target = a 174 } in
  match Bgpsec.validate ks hijacked with
  | Ok () -> Alcotest.fail "replayed announcement validated"
  | Error _ -> ()

let test_path_shortening_rejected () =
  (* Dropping the middle AS from a 3-hop chain must fail: the
     signature chain no longer lines up. *)
  let ks = ks () in
  let full = honest_chain ks in
  let shortened =
    { full with
      Bgpsec.route = Route.make_exn prefix [ a 111 ];
      signatures = [ List.nth full.Bgpsec.signatures 1 ] }
  in
  match Bgpsec.validate ks shortened with
  | Ok () -> Alcotest.fail "shortened path validated"
  | Error _ -> ()

let test_unenrolled_as_rejected () =
  let ks = ks () in
  (match Bgpsec.originate ks ~prefix ~origin:(a 42424) ~to_:(a 3356) with
   | Ok _ -> Alcotest.fail "unenrolled AS originated"
   | Error _ -> ());
  (* Validation of a chain involving an unenrolled AS fails too. *)
  let sr = honest_chain ks in
  let ks2 = Bgpsec.create_keystore ~key_height:3 ~seed:"other" () in
  Bgpsec.enroll ks2 (a 3356);
  match Bgpsec.validate ks2 sr with
  | Ok () -> Alcotest.fail "validated without the origin's key"
  | Error _ -> ()

let test_signature_count_mismatch () =
  let ks = ks () in
  let sr = honest_chain ks in
  let broken = { sr with Bgpsec.signatures = List.tl sr.Bgpsec.signatures } in
  match Bgpsec.validate ks broken with
  | Ok () -> Alcotest.fail "mismatched signature count validated"
  | Error e -> Alcotest.(check string) "reason" "signature count mismatch" e

let prop_chains_validate =
  (* Random honest chains of length 1-5 over enrolled ASes always
     validate; the same chain with any one signature replaced by
     another chain's fails. *)
  QCheck2.Test.make ~name:"honest chains validate, spliced ones don't" ~count:25
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 1000))
    (fun (hops, salt) ->
      let ks = Bgpsec.create_keystore ~key_height:3 ~seed:(Printf.sprintf "prop-%d" salt) () in
      let ases = List.init (hops + 2) (fun i -> a (1000 + i)) in
      List.iter (Bgpsec.enroll ks) ases;
      let origin = List.hd ases in
      let rec build sr = function
        | [] | [ _ ] -> sr
        | by :: (next :: _ as rest) ->
          build (Testutil.check_ok (Bgpsec.forward ks sr ~by ~to_:next)) rest
      in
      let sr0 =
        Testutil.check_ok (Bgpsec.originate ks ~prefix ~origin ~to_:(List.nth ases 1))
      in
      let sr = build sr0 (List.tl ases) in
      let valid = Bgpsec.validate ks sr = Ok () in
      (* Splice: replace the origin signature with a signature for a
         different prefix. *)
      let other =
        Testutil.check_ok
          (Bgpsec.originate ks ~prefix:(p "10.0.0.0/8") ~origin ~to_:(List.nth ases 1))
      in
      let spliced =
        { sr with
          Bgpsec.signatures =
            List.mapi
              (fun i s ->
                if i = List.length sr.Bgpsec.signatures - 1 then List.hd other.Bgpsec.signatures
                else s)
              sr.Bgpsec.signatures }
      in
      valid && Bgpsec.validate ks spliced <> Ok ())

let () =
  Alcotest.run "bgpsec"
    [ ( "chains",
        [ Alcotest.test_case "honest chain validates" `Quick test_honest_chain_validates;
          Alcotest.test_case "origin announcement validates" `Quick test_origin_announcement_validates;
          Alcotest.test_case "forged origin rejected" `Quick test_forged_origin_rejected;
          Alcotest.test_case "replay rejected" `Quick test_replay_to_other_neighbor_rejected;
          Alcotest.test_case "path shortening rejected" `Quick test_path_shortening_rejected;
          Alcotest.test_case "unenrolled AS rejected" `Quick test_unenrolled_as_rejected;
          Alcotest.test_case "signature count mismatch" `Quick test_signature_count_mismatch ] );
      ( "properties", List.map QCheck_alcotest.to_alcotest [ prop_chains_validate ] ) ]

