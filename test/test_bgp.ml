module Route = Bgp.Route
module Wire = Oracle.Bgp_wire
module Policy = Bgp.Policy
module Rov = Bgp.Rov
module Pfx = Netaddr.Pfx

let p = Testutil.p4
let a = Testutil.a
let route = Alcotest.testable Route.pp Route.equal

(* --- routes --- *)

let test_route_basics () =
  let r = Route.make_exn (p "168.122.0.0/16") [ a 3356; a 111 ] in
  Alcotest.check Testutil.asn "origin is last" (a 111) (Route.origin r);
  Alcotest.(check int) "path length" 2 (Route.path_length r);
  Alcotest.(check bool) "loop detect" true (Route.loops_through r (a 3356));
  Alcotest.(check bool) "no loop" false (Route.loops_through r (a 1));
  Alcotest.(check string) "paper rendering" "168.122.0.0/16: AS 3356, AS 111" (Route.to_string r);
  let r' = Route.prepend (a 174) r in
  Alcotest.(check int) "prepended" 3 (Route.path_length r');
  Alcotest.check Testutil.asn "origin preserved" (a 111) (Route.origin r');
  match Route.make (p "10.0.0.0/8") [] with
  | Ok _ -> Alcotest.fail "empty path accepted"
  | Error _ -> ()

(* --- UPDATE wire format --- *)

let test_update_roundtrip () =
  let u =
    { Wire.withdrawn = [ p "192.0.2.0/24"; Pfx.of_string_exn "2001:db8:dead::/48" ];
      announced = [ p "168.122.0.0/16"; p "168.122.225.0/24"; Pfx.of_string_exn "2001:db8::/32" ];
      as_path = [ a 3356; a 111 ] }
  in
  let wire = Wire.encode u in
  Alcotest.(check bool) "within BGP size" true (String.length wire <= Wire.max_message_size);
  let u' = Testutil.check_ok (Wire.decode wire) in
  Alcotest.(check (list Testutil.prefix)) "withdrawn" u.Wire.withdrawn u'.Wire.withdrawn;
  Alcotest.(check (list Testutil.prefix)) "announced" u.Wire.announced u'.Wire.announced;
  Alcotest.(check (list Testutil.asn)) "path" u.Wire.as_path u'.Wire.as_path

let test_update_pure_withdrawal () =
  let u = { Wire.withdrawn = [ p "10.0.0.0/8" ]; announced = []; as_path = [] } in
  let u' = Testutil.check_ok (Wire.decode (Wire.encode u)) in
  Alcotest.(check (list Testutil.prefix)) "withdrawn" u.Wire.withdrawn u'.Wire.withdrawn;
  Alcotest.(check int) "nothing announced" 0 (List.length u'.Wire.announced)

let test_update_of_route () =
  let r = Route.make_exn (p "168.122.0.0/24") [ a 666; a 111 ] in
  let u = Wire.of_route r in
  let routes = Wire.routes (Testutil.check_ok (Wire.decode (Wire.encode u))) in
  Alcotest.(check (list route)) "route survives the wire" [ r ] routes

let test_update_rejects () =
  (match Wire.encode { Wire.withdrawn = []; announced = [ p "10.0.0.0/8" ]; as_path = [] } with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "announcement without path encoded");
  List.iter
    (fun (name, bytes) ->
      match Wire.decode bytes with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error _ -> ())
    [ ("empty", "");
      ("short header", String.make 18 '\xff');
      ("bad marker", String.make 19 '\x00');
      ("length mismatch", String.make 16 '\xff' ^ "\x00\xff\x02");
      ("not update", String.make 16 '\xff' ^ "\x00\x13\x01") ]

let test_update_mutation_total () =
  let u =
    { Wire.withdrawn = [ p "192.0.2.0/24" ];
      announced = [ p "168.122.0.0/16"; Pfx.of_string_exn "2001:db8::/32" ];
      as_path = [ a 1; a 2 ] }
  in
  let wire = Bytes.of_string (Wire.encode u) in
  for i = 0 to Bytes.length wire - 1 do
    for v = 0 to 255 do
      let b = Bytes.copy wire in
      Bytes.set b i (Char.chr v);
      match Wire.decode (Bytes.to_string b) with Ok _ | Error _ -> ()
    done
  done

(* --- policy --- *)

let lf_self = Policy.Self
let lf_cust = Policy.From Policy.Customer
let lf_peer = Policy.From Policy.Peer
let lf_prov = Policy.From Policy.Provider

let test_local_pref_order () =
  Alcotest.(check bool) "self > customer" true (Policy.local_pref lf_self > Policy.local_pref lf_cust);
  Alcotest.(check bool) "customer > peer" true (Policy.local_pref lf_cust > Policy.local_pref lf_peer);
  Alcotest.(check bool) "peer > provider" true (Policy.local_pref lf_peer > Policy.local_pref lf_prov)

let test_export_rule () =
  (* Gao-Rexford: customer/self routes go everywhere; peer/provider
     routes only to customers. *)
  List.iter
    (fun (lf, to_, expected) ->
      Alcotest.(check bool) "export" expected (Policy.exports_to lf to_))
    [ (lf_self, Policy.Customer, true); (lf_self, Policy.Peer, true); (lf_self, Policy.Provider, true);
      (lf_cust, Policy.Customer, true); (lf_cust, Policy.Peer, true); (lf_cust, Policy.Provider, true);
      (lf_peer, Policy.Customer, true); (lf_peer, Policy.Peer, false); (lf_peer, Policy.Provider, false);
      (lf_prov, Policy.Customer, true); (lf_prov, Policy.Peer, false); (lf_prov, Policy.Provider, false) ]

let test_selection () =
  let r_short = Route.make_exn (p "10.0.0.0/8") [ a 5; a 1 ] in
  let r_long = Route.make_exn (p "10.0.0.0/8") [ a 5; a 9; a 1 ] in
  (* Class beats length. *)
  Alcotest.(check bool) "customer long beats provider short" true
    (Policy.better (lf_cust, r_long) (lf_prov, r_short) < 0);
  (* Length within a class. *)
  Alcotest.(check bool) "shorter wins" true (Policy.better (lf_peer, r_short) (lf_peer, r_long) < 0);
  (* Next-hop tie-break. *)
  let nh4 = Route.make_exn (p "10.0.0.0/8") [ a 5; a 4; a 1 ] in
  let nh7 = Route.make_exn (p "10.0.0.0/8") [ a 5; a 7; a 1 ] in
  Alcotest.(check bool) "lower next hop wins" true (Policy.better (lf_peer, nh4) (lf_peer, nh7) < 0);
  Alcotest.(check int) "reflexive" 0 (Policy.better (lf_peer, nh4) (lf_peer, nh4))

let test_flip () =
  Alcotest.(check bool) "customer flips to provider" true (Policy.flip Policy.Customer = Policy.Provider);
  Alcotest.(check bool) "peer flips to peer" true (Policy.flip Policy.Peer = Policy.Peer)

(* --- ROV --- *)

let test_rov_filter () =
  let db =
    Rpki.Validation.create [ Rpki.Vrp.make_exn (p "168.122.0.0/16") ~max_len:16 (a 111) ]
  in
  let rov = Rov.create db in
  let valid = Route.make_exn (p "168.122.0.0/16") [ a 111 ] in
  let invalid = Route.make_exn (p "168.122.0.0/24") [ a 666 ] in
  let notfound = Route.make_exn (p "8.8.8.0/24") [ a 666 ] in
  Alcotest.(check bool) "valid accepted" true (Rov.accepts rov valid);
  Alcotest.(check bool) "invalid dropped" false (Rov.accepts rov invalid);
  Alcotest.(check bool) "notfound accepted" true (Rov.accepts rov notfound);
  Alcotest.check Testutil.validation_state "state_of" Rpki.Validation.Invalid (Rov.state_of rov invalid)

(* --- properties --- *)

let gen_update =
  let open QCheck2.Gen in
  let* withdrawn = list_size (int_bound 5) Testutil.gen_clustered_v4_prefix in
  let* announced = list_size (int_bound 5) Testutil.gen_clustered_v4_prefix in
  let* path = list_size (int_range 1 6) Testutil.gen_asn in
  let announced = List.sort_uniq Pfx.compare announced in
  let withdrawn = List.sort_uniq Pfx.compare withdrawn in
  return { Wire.withdrawn; announced; as_path = (if announced = [] then [] else path) }

let prop_update_roundtrip =
  QCheck2.Test.make ~name:"UPDATE encode/decode roundtrip" ~count:300 gen_update (fun u ->
      match Wire.decode (Wire.encode u) with
      | Ok u' ->
        List.equal Pfx.equal u.Wire.withdrawn u'.Wire.withdrawn
        && List.equal Pfx.equal u.Wire.announced u'.Wire.announced
        && List.equal Rpki.Asnum.equal u.Wire.as_path u'.Wire.as_path
      | Error _ -> false)

let () =
  Alcotest.run "bgp"
    [ ( "route",
        [ Alcotest.test_case "basics" `Quick test_route_basics ] );
      ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_update_roundtrip;
          Alcotest.test_case "pure withdrawal" `Quick test_update_pure_withdrawal;
          Alcotest.test_case "of_route" `Quick test_update_of_route;
          Alcotest.test_case "rejects malformed" `Quick test_update_rejects;
          Alcotest.test_case "byte-mutation fuzz" `Slow test_update_mutation_total ] );
      ( "policy",
        [ Alcotest.test_case "local pref order" `Quick test_local_pref_order;
          Alcotest.test_case "export rule" `Quick test_export_rule;
          Alcotest.test_case "selection" `Quick test_selection;
          Alcotest.test_case "flip" `Quick test_flip ] );
      ( "rov",
        [ Alcotest.test_case "filter" `Quick test_rov_filter ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_update_roundtrip ] ) ]
