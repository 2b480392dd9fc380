(* The §8 operator-guidance module: findings, suggestions, audit
   ordering. *)

module Advisor = Mlcore.Advisor
module Roa = Rpki.Roa
module Bgp_table = Dataset.Bgp_table

let p = Testutil.p4
let a = Testutil.a

(* BU's world: /16 and one /24 announced. *)
let table () =
  let t = Bgp_table.create () in
  Bgp_table.add t (p "168.122.0.0/16") (a 111);
  Bgp_table.add t (p "168.122.225.0/24") (a 111);
  t

let roa entries = Testutil.check_ok (Roa.of_simple (a 111) entries)

let test_minimal_is_safe () =
  let r =
    Advisor.review (table ()) (roa [ ("168.122.0.0/16", None); ("168.122.225.0/24", None) ])
  in
  Alcotest.(check bool) "safe" true (r.Advisor.verdict = Advisor.Safe);
  Alcotest.(check int64) "no exposure" 0L r.Advisor.total_exposed

let test_maxlength_slack_is_vulnerable () =
  let r = Advisor.review (table ()) (roa [ ("168.122.0.0/16", Some 24) ]) in
  Alcotest.(check bool) "vulnerable" true (r.Advisor.verdict = Advisor.Vulnerable);
  (* Cone /16..24 = 2^9 - 1 = 511 prefixes; 2 announced. *)
  Alcotest.(check int64) "509 exposed" 509L r.Advisor.total_exposed

let test_complete_chain_maxlength_is_safe () =
  let t = table () in
  Bgp_table.add t (p "168.122.0.0/17") (a 111);
  Bgp_table.add t (p "168.122.128.0/17") (a 111);
  let r = Advisor.review t (roa [ ("168.122.0.0/16", Some 17) ]) in
  Alcotest.(check bool) "minimal maxLength use is safe" true (r.Advisor.verdict = Advisor.Safe)

let test_stale_entry_warns () =
  let r = Advisor.review (table ()) (roa [ ("168.122.0.0/16", None); ("10.99.0.0/16", None) ]) in
  Alcotest.(check bool) "warning" true (r.Advisor.verdict = Advisor.Warning);
  Alcotest.(check int) "one non-safe finding" 1
    (List.length (List.filter (fun f -> f.Advisor.severity <> Advisor.Safe) r.Advisor.findings))

let test_suggestion_fixes_vulnerability () =
  let t = table () in
  let bad = roa [ ("168.122.0.0/16", Some 24) ] in
  (match Advisor.suggest_minimal t bad with
   | None -> Alcotest.fail "no suggestion"
   | Some fixed ->
     let r = Advisor.review t fixed in
     Alcotest.(check bool) "suggestion is safe" true (r.Advisor.verdict = Advisor.Safe);
     (* and still authorizes everything announced *)
     let db = Rpki.Validation.create (Roa.vrps fixed) in
     List.iter
       (fun (q, origin) ->
         Alcotest.(check bool) "still authorizes" true (Rpki.Validation.authorized db q origin))
       (Bgp_table.pairs t));
  match Advisor.suggest_compressed t bad with
  | None -> Alcotest.fail "no compressed suggestion"
  | Some fixed ->
    let r = Advisor.review t fixed in
    Alcotest.(check bool) "compressed suggestion safe" true (r.Advisor.verdict = Advisor.Safe)

let test_revocation_suggested_for_fully_stale () =
  let t = table () in
  let stale = roa [ ("10.99.0.0/16", Some 24) ] in
  Alcotest.(check bool) "nothing to keep" true (Advisor.suggest_minimal t stale = None)

let test_audit_ordering () =
  let t = table () in
  Bgp_table.add t (p "10.0.0.0/16") (a 111);
  let corpus =
    [ roa [ ("168.122.0.0/16", None); ("168.122.225.0/24", None) ] (* safe: filtered out *);
      roa [ ("168.122.0.0/16", Some 20) ] (* vulnerable, small cone *);
      roa [ ("10.0.0.0/16", Some 24) ] (* vulnerable, bigger cone *);
      roa [ ("10.99.0.0/16", None) ] (* warning *) ]
  in
  let reports = Advisor.audit t corpus in
  Alcotest.(check int) "three flagged" 3 (List.length reports);
  (match List.map (fun (r, _) -> (r.Advisor.verdict, r.Advisor.total_exposed)) reports with
   | [ (Advisor.Vulnerable, e1); (Advisor.Vulnerable, e2); (Advisor.Warning, _) ] ->
     Alcotest.(check bool) "worst exposure first" true (Int64.compare e1 e2 >= 0)
   | _ -> Alcotest.fail "wrong ordering");
  (* The fully-stale ROA's suggestion is revocation (None). *)
  match List.rev reports with
  | (_, suggestion) :: _ -> Alcotest.(check bool) "revoke" true (suggestion = None)
  | [] -> Alcotest.fail "empty"

let test_corpus_stats () =
  let t = table () in
  let corpus =
    [ roa [ ("168.122.0.0/16", None); ("168.122.225.0/24", None) ];
      roa [ ("168.122.0.0/16", Some 24) ];
      roa [ ("10.99.0.0/16", None) ] ]
  in
  let s = Mlcore.Advisor.corpus_stats t corpus in
  Alcotest.(check int) "total" 3 s.Mlcore.Advisor.total;
  Alcotest.(check int) "safe" 1 s.Mlcore.Advisor.safe;
  Alcotest.(check int) "warnings" 1 s.Mlcore.Advisor.warnings;
  Alcotest.(check int) "vulnerable" 1 s.Mlcore.Advisor.vulnerable;
  Alcotest.(check int64) "exposure" 510L s.Mlcore.Advisor.total_exposed

let test_report_rendering () =
  let r = Advisor.review (table ()) (roa [ ("168.122.0.0/16", Some 24) ]) in
  let s = Format.asprintf "%a" Advisor.pp_report r in
  Alcotest.(check bool) "mentions the verdict" true
    (String.length s > 0
     &&
     let rec contains i =
       i + 10 <= String.length s && (String.sub s i 10 = "VULNERABLE" || contains (i + 1))
     in
     contains 0)

(* Property: a suggested replacement is always Safe and never loses an
   announced authorization. *)
let prop_suggestions_safe =
  let open QCheck2 in
  let gen =
    Gen.list_size (Gen.int_range 1 12)
      (Gen.pair Testutil.gen_clustered_v4_prefix (Gen.option (Gen.int_bound 8)))
  in
  Test.make ~name:"suggest_minimal output is Safe and complete" ~count:200 gen (fun entries ->
      let t = Bgp_table.create () in
      (* Announce a random subset of the entries' prefixes. *)
      List.iteri
        (fun i (q, _) -> if i mod 2 = 0 then Bgp_table.add t q (a 111))
        entries;
      let roa_entries =
        List.map
          (fun (q, slack) ->
            let l = Netaddr.Pfx.length q in
            let m = Option.map (fun s -> min (l + s) (Netaddr.Pfx.addr_bits q)) slack in
            { Roa.prefix = q; max_len = m })
          entries
      in
      match Roa.make (a 111) roa_entries with
      | Error _ -> true
      | Ok candidate ->
        (match Advisor.suggest_minimal t candidate with
         | None ->
           (* Acceptable only when nothing the ROA authorizes is
              announced. *)
           let db = Rpki.Validation.create (Roa.vrps candidate) in
           Bgp_table.fold t ~init:true ~f:(fun acc q origin ->
               acc && not (Rpki.Validation.authorized db q origin))
         | Some fixed ->
           let r = Advisor.review t fixed in
           let db = Rpki.Validation.create (Roa.vrps candidate) in
           let db' = Rpki.Validation.create (Roa.vrps fixed) in
           r.Advisor.verdict = Advisor.Safe
           && Bgp_table.fold t ~init:true ~f:(fun acc q origin ->
                  acc
                  && ((not (Rpki.Validation.authorized db q origin))
                      || Rpki.Validation.authorized db' q origin))))

let () =
  Alcotest.run "mlcore.advisor"
    [ ( "review",
        [ Alcotest.test_case "minimal is safe" `Quick test_minimal_is_safe;
          Alcotest.test_case "maxLength slack is vulnerable" `Quick test_maxlength_slack_is_vulnerable;
          Alcotest.test_case "complete-chain maxLength is safe" `Quick test_complete_chain_maxlength_is_safe;
          Alcotest.test_case "stale entry warns" `Quick test_stale_entry_warns ] );
      ( "suggestions",
        [ Alcotest.test_case "fixes vulnerability" `Quick test_suggestion_fixes_vulnerability;
          Alcotest.test_case "revocation for fully stale" `Quick test_revocation_suggested_for_fully_stale ] );
      ( "audit",
        [ Alcotest.test_case "ordering" `Quick test_audit_ordering;
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "corpus stats" `Quick test_corpus_stats ] );
      ( "properties", List.map QCheck_alcotest.to_alcotest [ prop_suggestions_safe ] ) ]
