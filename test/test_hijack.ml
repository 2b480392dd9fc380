(* The §4–§5 security claims, as executable assertions over the attack
   harness. *)

module Attack = Topology.Attack
module Hijack_eval = Experiments.Hijack_eval
module V = Rpki.Validation
module Vrp = Rpki.Vrp
module Route = Bgp.Route
module G = Topology.As_graph

let p = Testutil.p4

let graph = lazy (Topology.Gen.generate ~params:{ Topology.Gen.default_params with Topology.Gen.n_as = 300 } ~seed:17 ())

(* The BU running example mapped onto two stubs of the synthetic
   topology. *)
let scenario ~minimal ~rov =
  let g = Lazy.force graph in
  let stubs = List.filter (G.is_stub g) (G.as_list g) in
  let victim = List.nth stubs 3 and attacker = List.nth stubs (List.length stubs - 2) in
  let p16 = p "168.122.0.0/16" and p24 = p "168.122.225.0/24" in
  let vrps =
    if minimal then [ Vrp.exact p16 victim; Vrp.exact p24 victim ]
    else [ Vrp.make_exn p16 ~max_len:24 victim ]
  in
  { Attack.graph = g;
    victim;
    attacker;
    announced = [ p16; p24 ];
    vrps;
    rov = (fun asn -> rov && not (Rpki.Asnum.equal asn attacker));
    aspas = None }

let target = Testutil.p4 "168.122.0.0/24" (* unannounced subprefix, paper's §4 *)

let test_baseline_no_attack () =
  let sc = scenario ~minimal:false ~rov:true in
  let r = Attack.baseline sc ~target:(p "168.122.0.1/32") in
  Alcotest.(check int) "nothing to the attacker" 0 r.Attack.to_attacker;
  Alcotest.(check int) "no one unreachable" 0 r.Attack.unreachable;
  Alcotest.(check int) "everyone reaches the victim" r.Attack.measured r.Attack.to_victim

let test_forged_origin_subprefix_on_nonminimal () =
  (* The paper's central claim: against a non-minimal maxLength ROA,
     the forged-origin subprefix hijack is RPKI-VALID and captures all
     traffic for the unannounced subprefix. *)
  let sc = scenario ~minimal:false ~rov:true in
  let r = Attack.run sc (Attack.Forged_origin_subprefix target) ~target:(p "168.122.0.1/32") in
  Alcotest.check Testutil.validation_state "hijack is Valid" V.Valid r.Attack.hijack_validity;
  Alcotest.(check int) "captures every AS" r.Attack.measured r.Attack.to_attacker

let test_forged_origin_subprefix_on_minimal () =
  (* With minimal ROAs the same announcement is Invalid and ROV kills
     it everywhere; traffic stays with the victim via the /16. *)
  let sc = scenario ~minimal:true ~rov:true in
  let r = Attack.run sc (Attack.Forged_origin_subprefix target) ~target:(p "168.122.0.1/32") in
  Alcotest.check Testutil.validation_state "hijack is Invalid" V.Invalid r.Attack.hijack_validity;
  Alcotest.(check int) "captures nobody" 0 r.Attack.to_attacker;
  Alcotest.(check int) "victim keeps everyone" r.Attack.measured r.Attack.to_victim

let test_minimal_roa_equals_no_rpki_for_deaggregation () =
  (* The victim's own announced /24 stays valid under the minimal ROA
     (hardening doesn't break legitimate de-aggregation). *)
  let sc = scenario ~minimal:true ~rov:true in
  let db = V.create sc.Attack.vrps in
  Alcotest.check Testutil.validation_state "announced /24 valid" V.Valid
    (V.validate db (p "168.122.225.0/24") sc.Attack.victim)

let test_traditional_forged_origin_splits () =
  (* §5: attacking the whole /16 with a forged origin splits traffic,
     and the majority keeps routing to the victim (Lychev et al.). *)
  let sc = scenario ~minimal:true ~rov:true in
  let r = Attack.run sc Attack.Forged_origin ~target:(p "168.122.10.1/32") in
  Alcotest.check Testutil.validation_state "forged origin is Valid" V.Valid r.Attack.hijack_validity;
  Alcotest.(check bool) "some capture" true (r.Attack.to_attacker > 0);
  Alcotest.(check bool) "majority stays legitimate" true
    (r.Attack.to_victim > r.Attack.to_attacker);
  (* And it is strictly weaker than the subprefix variant on the
     non-minimal ROA. *)
  let sc' = scenario ~minimal:false ~rov:true in
  let r' = Attack.run sc' (Attack.Forged_origin_subprefix target) ~target:(p "168.122.0.1/32") in
  Alcotest.(check bool) "subprefix variant is stronger" true
    (Attack.capture_fraction r' > Attack.capture_fraction r)

let test_subprefix_hijack_blocked_by_roa () =
  (* The attack ROAs are designed to stop: plain subprefix hijack is
     Invalid under either ROA shape, and with full ROV captures
     nothing. *)
  List.iter
    (fun minimal ->
      let sc = scenario ~minimal ~rov:true in
      let r = Attack.run sc (Attack.Subprefix_hijack target) ~target:(p "168.122.0.1/32") in
      Alcotest.check Testutil.validation_state "invalid" V.Invalid r.Attack.hijack_validity;
      Alcotest.(check int) "blocked" 0 r.Attack.to_attacker)
    [ true; false ]

let test_subprefix_hijack_wins_without_rov () =
  (* Without ROV the RPKI is decoration: longest-prefix match hands the
     attacker everything — the paper's §2 motivation. *)
  let sc = scenario ~minimal:true ~rov:false in
  let r = Attack.run sc (Attack.Subprefix_hijack target) ~target:(p "168.122.0.1/32") in
  Alcotest.(check int) "full capture" r.Attack.measured r.Attack.to_attacker

let test_prefix_hijack_under_rov () =
  let sc = scenario ~minimal:true ~rov:true in
  let r = Attack.run sc Attack.Prefix_hijack ~target:(p "168.122.10.1/32") in
  Alcotest.check Testutil.validation_state "invalid" V.Invalid r.Attack.hijack_validity;
  Alcotest.(check int) "blocked" 0 r.Attack.to_attacker

let test_partial_rov_partial_protection () =
  (* ROV at a random half of ASes, but not in the attacker's
     neighborhood (otherwise the invalid route can die at its first
     hop): the hijack captures some but not all traffic. *)
  let g = Lazy.force graph in
  let rng = Rng.create 5 in
  let sc0 = scenario ~minimal:true ~rov:true in
  let exempt = sc0.Attack.attacker :: G.providers g sc0.Attack.attacker in
  let half = Rpki.Asnum.Tbl.create 64 in
  List.iter
    (fun asn ->
      if Rng.bool rng && not (List.exists (Rpki.Asnum.equal asn) exempt) then
        Rpki.Asnum.Tbl.replace half asn ())
    (G.as_list g);
  let sc = { sc0 with Attack.rov = (fun asn -> Rpki.Asnum.Tbl.mem half asn) } in
  let r = Attack.run sc (Attack.Subprefix_hijack target) ~target:(p "168.122.0.1/32") in
  Alcotest.(check bool) "captures something" true (r.Attack.to_attacker > 0);
  Alcotest.(check bool) "but not everything" true (r.Attack.to_victim > 0)

let test_hijack_eval_table () =
  let result = Hijack_eval.run ~seed:2 ~n_as:200 ~rov:1.0 ~trials:3 in
  Alcotest.(check int) "eight cells" 8 (List.length result.Hijack_eval.cells);
  let cell kind_match minimal =
    List.find
      (fun (c : Hijack_eval.cell) ->
        c.Hijack_eval.roa_minimal = minimal && kind_match c.Hijack_eval.attack)
      result.Hijack_eval.cells
  in
  let is_fosp = function Attack.Forged_origin_subprefix _ -> true | _ -> false in
  let fosp_nonmin = cell is_fosp false and fosp_min = cell is_fosp true in
  Alcotest.(check (float 0.01)) "non-minimal: total capture" 1.0 fosp_nonmin.Hijack_eval.mean_capture;
  Alcotest.(check (float 0.01)) "minimal: no capture" 0.0 fosp_min.Hijack_eval.mean_capture;
  Alcotest.(check bool) "rendering mentions the attack" true
    (let s = Hijack_eval.render result in
     String.length s > 100);
  (* The render is exercised end-to-end by the CLI; here we only check
     it includes the verdict column. *)
  ()

(* Every result is a mean over the trials, so zero or fewer trials is
   refused up front rather than failing mid-run. *)
let test_hijack_eval_needs_a_trial () =
  List.iter
    (fun trials ->
      let refused name f =
        match f () with
        | _ -> Alcotest.failf "%s accepted %d trials" name trials
        | exception Invalid_argument _ -> ()
      in
      refused "run" (fun () -> ignore (Hijack_eval.run ~seed:2 ~n_as:200 ~rov:1.0 ~trials));
      refused "aspa_comparison" (fun () ->
          ignore (Hijack_eval.aspa_comparison ~seed:2 ~n_as:200 ~trials));
      refused "rov_sweep" (fun () ->
          ignore (Hijack_eval.rov_sweep ~seed:2 ~n_as:200 ~trials ~fractions:[ 0.5 ])))
    [ 0; -2 ]

let () =
  Alcotest.run "attack-claims"
    [ ( "paper section 4-5",
        [ Alcotest.test_case "baseline sanity" `Quick test_baseline_no_attack;
          Alcotest.test_case "forged-origin subprefix vs non-minimal" `Quick
            test_forged_origin_subprefix_on_nonminimal;
          Alcotest.test_case "forged-origin subprefix vs minimal" `Quick
            test_forged_origin_subprefix_on_minimal;
          Alcotest.test_case "minimal keeps legitimate de-aggregation" `Quick
            test_minimal_roa_equals_no_rpki_for_deaggregation;
          Alcotest.test_case "traditional forged origin splits" `Quick
            test_traditional_forged_origin_splits;
          Alcotest.test_case "subprefix hijack blocked by ROA+ROV" `Quick
            test_subprefix_hijack_blocked_by_roa;
          Alcotest.test_case "subprefix hijack wins without ROV" `Quick
            test_subprefix_hijack_wins_without_rov;
          Alcotest.test_case "prefix hijack blocked" `Quick test_prefix_hijack_under_rov;
          Alcotest.test_case "partial ROV partial protection" `Quick
            test_partial_rov_partial_protection ] );
      ( "evaluation harness",
        [ Alcotest.test_case "hijack table" `Quick test_hijack_eval_table;
          Alcotest.test_case "at least one trial" `Quick test_hijack_eval_needs_a_trial ] ) ]
