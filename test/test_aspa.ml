(* ASPA: the extension experiment. Path verification semantics and
   the headline result — the paper's forged-origin subprefix hijack is
   Path-Invalid under the victim's ASPA even when a non-minimal
   maxLength ROA makes it origin-Valid. *)

module Aspa = Rpki.Aspa
module Attack = Topology.Attack
module G = Topology.As_graph

let p = Testutil.p4
let a = Testutil.a
let state = Alcotest.testable Aspa.pp_state (fun x y -> x = y)

(* A small world: 1 and 2 are tier-1 peers; 3 is a customer of 1;
   6 is a customer of 3; 5 is a customer of 2. Everyone attests. *)
let db =
  Aspa.db_of_list
    [ Aspa.make_exn ~customer:(a 6) ~providers:[ a 3 ];
      Aspa.make_exn ~customer:(a 3) ~providers:[ a 1 ];
      Aspa.make_exn ~customer:(a 5) ~providers:[ a 2 ];
      Aspa.make_exn ~customer:(a 1) ~providers:[];
      Aspa.make_exn ~customer:(a 2) ~providers:[] ]

let test_make () =
  (match Aspa.make ~customer:(a 1) ~providers:[ a 1 ] with
   | Ok _ -> Alcotest.fail "self-provider accepted"
   | Error _ -> ());
  let x = Aspa.make_exn ~customer:(a 1) ~providers:[ a 3; a 2; a 3 ] in
  Alcotest.(check (list Testutil.asn)) "sorted dedup" [ a 2; a 3 ] x.Aspa.providers

let check_verify name expected ~received_from path =
  Alcotest.check state name expected
    (Aspa.verify db ~received_from ~as_path:(List.map a path))

let test_upstream_valid () =
  (* Receiver is 3's provider (AS 1): path [3; 6] is a clean up-ramp. *)
  check_verify "customer up-ramp" Aspa.Path_valid ~received_from:Aspa.From_customer [ 3; 6 ];
  check_verify "direct customer" Aspa.Path_valid ~received_from:Aspa.From_customer [ 6 ];
  (* Peer receipt of a full ramp: AS 2 hears [1; 3; 6] from its peer 1. *)
  check_verify "peer up-ramp" Aspa.Path_valid ~received_from:Aspa.From_peer [ 1; 3; 6 ]

let test_upstream_invalid_forged_adjacency () =
  (* The paper's §4 path "attacker 666, victim 6": 6 attests only 3 as
     its provider, so the hop 6 -> 666 is an attested refusal. *)
  check_verify "forged origin" Aspa.Path_invalid ~received_from:Aspa.From_customer [ 666; 6 ];
  check_verify "forged origin via peer" Aspa.Path_invalid ~received_from:Aspa.From_peer [ 666; 6 ];
  (* Even buried mid-path. *)
  check_verify "leak through wrong provider" Aspa.Path_invalid ~received_from:Aspa.From_peer
    [ 1; 5; 6 ]

let test_upstream_unknown () =
  (* AS 99 has no attestation: the hop 99 -> 1 is unverifiable. *)
  let db2 = Aspa.db_of_list [ Aspa.make_exn ~customer:(a 3) ~providers:[ a 1 ] ] in
  Alcotest.check state "unattested hop" Aspa.Path_unknown
    (Aspa.verify db2 ~received_from:Aspa.From_customer ~as_path:[ a 1; a 99 ])

let test_downstream_apex () =
  (* AS 5 receives [2; 1; 3; 6] from its provider 2: up-ramp 6->3->1,
     apex crossing 1~2 ... the 1-2 hop is peer, which ASPA sees as
     "not an attested provider" in both directions; with both tier-1s
     attesting empty provider sets this is Path-Invalid under the
     strict rule — the known ASPA/peering subtlety. With no
     attestations for the tier-1s it is Unknown. *)
  check_verify "apex over attested tier-1s" Aspa.Path_invalid ~received_from:Aspa.From_provider
    [ 2; 1; 3; 6 ];
  let db_no_t1 =
    Aspa.db_of_list
      [ Aspa.make_exn ~customer:(a 6) ~providers:[ a 3 ];
        Aspa.make_exn ~customer:(a 3) ~providers:[ a 1 ] ]
  in
  Alcotest.check state "apex with unattested tier-1s" Aspa.Path_unknown
    (Aspa.verify db_no_t1 ~received_from:Aspa.From_provider
       ~as_path:(List.map a [ 2; 1; 3; 6 ]));
  (* A pure down-ramp from the provider is fine: 6 receives [3; 1]
     where 3 is 6's provider and 3's provider 1 originated. *)
  check_verify "down-ramp" Aspa.Path_valid ~received_from:Aspa.From_provider [ 3; 1 ]

let test_prepend_collapse () =
  check_verify "prepending ignored" Aspa.Path_valid ~received_from:Aspa.From_customer
    [ 3; 3; 3; 6; 6 ]

(* --- the headline extension experiment --- *)

let test_aspa_blocks_forged_origin_subprefix () =
  let g =
    Topology.Gen.generate
      ~params:{ Topology.Gen.default_params with Topology.Gen.n_as = 300 } ~seed:17 ()
  in
  let stubs = List.filter (G.is_stub g) (G.as_list g) in
  let victim = List.nth stubs 3 and attacker = List.nth stubs (List.length stubs - 2) in
  let p16 = p "168.122.0.0/16" and p24 = p "168.122.225.0/24" in
  let vulnerable_vrps = [ Rpki.Vrp.make_exn p16 ~max_len:24 victim ] in
  let base =
    { Attack.graph = g;
      victim;
      attacker;
      announced = [ p16; p24 ];
      vrps = vulnerable_vrps;
      rov = (fun asn -> not (Rpki.Asnum.equal asn attacker));
      aspas = None }
  in
  let target = p "168.122.0.0/24" in
  (* Without ASPA: the paper's result — Valid and total capture. *)
  let r = Attack.run base (Attack.Forged_origin_subprefix target) ~target:(p "168.122.0.1/32") in
  Alcotest.(check int) "without ASPA: total capture" r.Attack.measured r.Attack.to_attacker;
  (* With the victim's ASPA: same non-minimal ROA, but the forged
     adjacency is an attested refusal, so the announcement dies at the
     attacker's first validating provider. *)
  let aspas =
    Aspa.db_of_list [ Aspa.make_exn ~customer:victim ~providers:(G.providers g victim) ]
  in
  let r' =
    Attack.run { base with Attack.aspas = Some aspas }
      (Attack.Forged_origin_subprefix target) ~target:(p "168.122.0.1/32")
  in
  Alcotest.check Testutil.validation_state "still origin-Valid" Rpki.Validation.Valid
    r'.Attack.hijack_validity;
  Alcotest.(check int) "with ASPA: zero capture" 0 r'.Attack.to_attacker;
  (* And the victim's legitimate traffic still flows. *)
  Alcotest.(check bool) "victim keeps traffic" true (r'.Attack.to_victim > 0)

let () =
  Alcotest.run "aspa"
    [ ("object", [ Alcotest.test_case "make" `Quick test_make ]);
      ( "verification",
        [ Alcotest.test_case "upstream valid" `Quick test_upstream_valid;
          Alcotest.test_case "forged adjacency invalid" `Quick test_upstream_invalid_forged_adjacency;
          Alcotest.test_case "unattested unknown" `Quick test_upstream_unknown;
          Alcotest.test_case "downstream apex" `Quick test_downstream_apex;
          Alcotest.test_case "prepend collapse" `Quick test_prepend_collapse ] );
      ( "extension experiment",
        [ Alcotest.test_case "ASPA closes the maxLength hole" `Quick
            test_aspa_blocks_forged_origin_subprefix ] ) ]
