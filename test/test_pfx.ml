(* The prefix operations only the tests use ({!Testutil}) beside the
   library's own. *)
module Pfx = struct
  include Netaddr.Pfx

  let parent = Testutil.parent
  let sibling = Testutil.sibling
  let is_left_child p = length p = 0 || not (bit p (length p - 1))
  let aggregate = Testutil.aggregate
end

let p = Testutil.p4
let check_p = Alcotest.check Testutil.prefix

let test_family_dispatch () =
  Alcotest.(check bool) "v4 afi" true (Pfx.afi (p "10.0.0.0/8") = Pfx.Afi_v4);
  Alcotest.(check bool) "v6 afi" true (Pfx.afi (p "2001:db8::/32") = Pfx.Afi_v6);
  Alcotest.(check int) "v4 bits" 32 (Pfx.addr_bits (p "10.0.0.0/8"));
  Alcotest.(check int) "v6 bits" 128 (Pfx.addr_bits (p "2001:db8::/32"));
  match Pfx.of_string "not-a-prefix" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

let test_cross_family () =
  let v4 = p "10.0.0.0/8" and v6 = p "2001:db8::/32" in
  Alcotest.(check bool) "no cross subset" false (Pfx.subset v4 v6 || Pfx.subset v6 v4);
  Alcotest.(check bool) "v4 sorts first" true (Pfx.compare v4 v6 < 0);
  Alcotest.(check bool) "not equal" false (Pfx.equal v4 v6)

let test_total_order () =
  let sorted =
    List.sort Pfx.compare
      (List.map p [ "2001:db8::/32"; "10.0.0.0/8"; "10.0.0.0/9"; "9.0.0.0/8"; "::/0" ])
  in
  Alcotest.(check (list string))
    "order"
    [ "9.0.0.0/8"; "10.0.0.0/8"; "10.0.0.0/9"; "::/0"; "2001:db8::/32" ]
    (List.map Pfx.to_string sorted)

let test_is_left_child () =
  Alcotest.(check bool) "left" true (Pfx.is_left_child (p "10.0.0.0/9"));
  Alcotest.(check bool) "right" false (Pfx.is_left_child (p "10.128.0.0/9"));
  Alcotest.(check bool) "/0 is left by convention" true (Pfx.is_left_child (p "0.0.0.0/0"))

let test_navigation_consistency () =
  let q = p "168.122.128.0/18" in
  check_p "parent" (p "168.122.128.0/17") (Option.get (Pfx.parent q));
  check_p "sibling" (p "168.122.192.0/18") (Option.get (Pfx.sibling q));
  match Pfx.split (Option.get (Pfx.parent q)) with
  | Some (l, r) ->
    check_p "split left is q" q l;
    check_p "split right is sibling" (Option.get (Pfx.sibling q)) r
  | None -> Alcotest.fail "split failed"

let test_set_map_tbl () =
  let l = List.map p [ "10.0.0.0/8"; "10.0.0.0/8"; "2001:db8::/32"; "10.0.0.0/9" ] in
  let s = Pfx.Set.of_list l in
  Alcotest.(check int) "set dedups" 3 (Pfx.Set.cardinal s);
  let tbl = Pfx.Tbl.create 4 in
  List.iter (fun q -> Pfx.Tbl.replace tbl q ()) l;
  Alcotest.(check int) "tbl dedups" 3 (Pfx.Tbl.length tbl)

let test_aggregate () =
  let agg l = List.map Pfx.to_string (Pfx.aggregate (List.map p l)) in
  Alcotest.(check (list string)) "empty" [] (agg []);
  Alcotest.(check (list string)) "covered absorbed" [ "10.0.0.0/8" ]
    (agg [ "10.0.0.0/8"; "10.5.0.0/16"; "10.0.0.0/24" ]);
  Alcotest.(check (list string)) "siblings merge" [ "10.0.0.0/15" ]
    (agg [ "10.0.0.0/16"; "10.1.0.0/16" ]);
  Alcotest.(check (list string)) "cascading merge" [ "10.0.0.0/14" ]
    (agg [ "10.0.0.0/16"; "10.1.0.0/16"; "10.2.0.0/16"; "10.3.0.0/16" ]);
  Alcotest.(check (list string)) "non-siblings stay" [ "10.1.0.0/16"; "10.2.0.0/16" ]
    (agg [ "10.1.0.0/16"; "10.2.0.0/16" ]);
  Alcotest.(check (list string)) "families independent" [ "10.0.0.0/15"; "2001:db8::/31" ]
    (agg [ "10.0.0.0/16"; "10.1.0.0/16"; "2001:db8::/32"; "2001:db9::/32" ]);
  Alcotest.(check (list string)) "dedup" [ "10.0.0.0/8" ] (agg [ "10.0.0.0/8"; "10.0.0.0/8" ])

let prop_aggregate_preserves_space =
  let open QCheck2 in
  let gen = Gen.list_size (Gen.int_range 0 40) Testutil.gen_clustered_v4_prefix in
  (* Probe with /26 prefixes: strictly longer than any generated
     member (max /24), so "covered by the union" collapses to "covered
     by one element" and the check is exact without recursion. Probes
     are the extreme /26s inside each member and the /26 just past its
     edges. *)
  let rec descend q ~right =
    if Pfx.length q >= 26 then q
    else
      match Pfx.split q with
      | Some (l, r) -> descend (if right then r else l) ~right
      | None -> q
  in
  Test.make ~name:"aggregate preserves the covered address space" ~count:300 gen (fun ps ->
      let agg = Pfx.aggregate ps in
      let covered set q = List.exists (fun k -> Pfx.subset q k) set in
      let probes =
        List.concat_map
          (fun q ->
            let inside = [ descend q ~right:false; descend q ~right:true ] in
            let outside =
              match Pfx.sibling q with
              | Some sib -> [ descend sib ~right:false; descend sib ~right:true ]
              | None -> []
            in
            inside @ outside)
          (ps @ agg)
      in
      List.for_all (fun q -> covered ps q = covered agg q) probes
      && List.length agg <= List.length (List.sort_uniq Pfx.compare ps))

let prop_aggregate_idempotent =
  let open QCheck2 in
  let gen = Gen.list_size (Gen.int_range 0 40) Testutil.gen_clustered_v4_prefix in
  Test.make ~name:"aggregate is idempotent" ~count:300 gen (fun ps ->
      let once = Pfx.aggregate ps in
      List.equal Pfx.equal once (Pfx.aggregate once))

let prop_aggregate_matches_rescan_reference =
  (* Differential oracle for the worklist sweep: the original
     quadratic restart-scan merge (rescan the whole set after every
     sibling merge until a fixpoint), kept as a reference. The merge
     relation is confluent, so both must reach the same fixpoint —
     and the same output order. *)
  let open QCheck2 in
  let reference ps =
    let drop_covered set =
      List.filter
        (fun q -> not (List.exists (fun k -> (not (Pfx.equal q k)) && Pfx.subset q k) set))
        set
    in
    let rec merge_pass set =
      let rec find = function
        | [] -> None
        | q :: rest ->
          (match Pfx.sibling q, Pfx.parent q with
           | Some sib, Some par when List.exists (Pfx.equal sib) set -> Some (q, sib, par)
           | _ -> find rest)
      in
      match find set with
      | None -> set
      | Some (q, sib, par) ->
        merge_pass
          (par :: List.filter (fun k -> not (Pfx.equal k q) && not (Pfx.equal k sib)) set)
    in
    List.sort Pfx.compare (merge_pass (drop_covered (List.sort_uniq Pfx.compare ps)))
  in
  let gen = Gen.list_size (Gen.int_range 0 40) Testutil.gen_clustered_v4_prefix in
  Test.make ~name:"aggregate equals restart-scan reference" ~count:300 gen (fun ps ->
      List.equal Pfx.equal (Pfx.aggregate ps) (reference ps))

let prop_parent_sibling_split =
  QCheck2.Test.make ~name:"parent/sibling/split agree" ~count:1000 Testutil.gen_prefix (fun q ->
      match Pfx.parent q with
      | None -> Pfx.length q = 0
      | Some par ->
        (match Pfx.split par with
         | None -> false
         | Some (l, r) ->
           let sib = Option.get (Pfx.sibling q) in
           (Pfx.equal q l && Pfx.equal sib r) || (Pfx.equal q r && Pfx.equal sib l)))

let prop_hash_consistent =
  QCheck2.Test.make ~name:"equal implies same hash" ~count:500
    QCheck2.Gen.(pair Testutil.gen_prefix Testutil.gen_prefix)
    (fun (a, b) -> (not (Pfx.equal a b)) || Pfx.hash a = Pfx.hash b)

let prop_subset_transitive =
  QCheck2.Test.make ~name:"subset is transitive along parents" ~count:500 Testutil.gen_prefix
    (fun q ->
      match Pfx.parent q with
      | None -> true
      | Some par ->
        (match Pfx.parent par with
         | None -> Pfx.subset q par
         | Some grand -> Pfx.subset q par && Pfx.subset par grand && Pfx.subset q grand))

let () =
  Alcotest.run "netaddr.pfx"
    [ ( "unified",
        [ Alcotest.test_case "family dispatch" `Quick test_family_dispatch;
          Alcotest.test_case "cross-family" `Quick test_cross_family;
          Alcotest.test_case "total order" `Quick test_total_order;
          Alcotest.test_case "is_left_child" `Quick test_is_left_child;
          Alcotest.test_case "navigation" `Quick test_navigation_consistency;
          Alcotest.test_case "set/map/tbl" `Quick test_set_map_tbl;
          Alcotest.test_case "aggregate" `Quick test_aggregate ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parent_sibling_split; prop_hash_consistent; prop_subset_transitive;
            prop_aggregate_preserves_space; prop_aggregate_idempotent;
            prop_aggregate_matches_rescan_reference ] ) ]
