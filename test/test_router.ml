(* The message-level BGP router network, checked two ways: unit
   behavior on the diamond topology, and differentially against the
   analytic Propagate simulator on random generated topologies. *)

module Router = Oracle.Bgp_router
module Network = Oracle.Bgp_router.Network
module Policy = Bgp.Policy
module Route = Bgp.Route
module G = Topology.As_graph
module Asnum = Rpki.Asnum
module Pfx = Netaddr.Pfx

let p = Testutil.p4
let a = Testutil.a

let make_router ?rov n = Router.create ?rov ~asn:(a n) ()

(* The same diamond as test_topology. *)
let diamond_net ?rov_for () =
  let net = Network.create () in
  let rov_of n =
    match rov_for with
    | Some (ases, rov) when List.exists (Int.equal n) ases -> Some rov
    | _ -> None
  in
  List.iter (fun n -> Network.add net (make_router ?rov:(rov_of n) n)) [ 1; 2; 3; 4; 5; 6; 7 ];
  Network.connect net (a 1) (a 2) ~relation:Policy.Peer;
  Network.connect net (a 1) (a 3) ~relation:Policy.Customer;
  Network.connect net (a 1) (a 4) ~relation:Policy.Customer;
  Network.connect net (a 2) (a 5) ~relation:Policy.Customer;
  Network.connect net (a 3) (a 6) ~relation:Policy.Customer;
  Network.connect net (a 4) (a 7) ~relation:Policy.Customer;
  Network.connect net (a 5) (a 7) ~relation:Policy.Customer;
  net

let test_diamond_exchange () =
  let net = diamond_net () in
  let r6 = Option.get (Network.router net (a 6)) in
  Router.originate r6 (p "10.0.0.0/16");
  Network.run net;
  (* Everyone selects a route ending at AS 6. *)
  List.iter
    (fun n ->
      let r = Option.get (Network.router net (a n)) in
      match Router.best_route r (p "10.0.0.0/16") with
      | Some route -> Alcotest.check Testutil.asn (Printf.sprintf "AS %d origin" n) (a 6) (Route.origin route)
      | None -> Alcotest.failf "AS %d has no route" n)
    [ 1; 2; 3; 4; 5; 7 ];
  (* AS 5's path crosses the peering link, as in the analytic model. *)
  let r5 = Option.get (Network.router net (a 5)) in
  (match Router.best_route r5 (p "10.0.0.0/16") with
   | Some r -> Alcotest.(check (list int)) "5's path" [ 5; 2; 1; 3; 6 ] (List.map Asnum.to_int r.Route.as_path)
   | None -> Alcotest.fail "no route at 5");
  Alcotest.(check bool) "messages flowed" true (Network.message_count net > 0)

(* After AS 6 originates one /16 and the network settles, AS 1
   forwards an address inside it toward AS 6, and has no entry for an
   address nothing originates. Withdrawal has its own case below. *)
let test_forwarding_after_origination () =
  let net = diamond_net () in
  let r6 = Option.get (Network.router net (a 6)) in
  Router.originate r6 (p "10.0.0.0/16");
  Network.run net;
  let r1 = Option.get (Network.router net (a 1)) in
  (match Router.forward r1 (p "10.0.0.1/32") with
   | Some r -> Alcotest.check Testutil.asn "forwards toward 6" (a 6) (Route.origin r)
   | None -> Alcotest.fail "no forwarding entry");
  Alcotest.(check bool) "unknown destination" true (Router.forward r1 (p "99.0.0.1/32") = None)

let test_longest_prefix_forwarding () =
  let net = diamond_net () in
  let r6 = Option.get (Network.router net (a 6)) in
  let r7 = Option.get (Network.router net (a 7)) in
  Router.originate r6 (p "10.0.0.0/16");
  Router.originate r7 (p "10.0.128.0/24");
  Network.run net;
  let r1 = Option.get (Network.router net (a 1)) in
  (match Router.forward r1 (p "10.0.128.5/32") with
   | Some r -> Alcotest.check Testutil.asn "/24 wins" (a 7) (Route.origin r)
   | None -> Alcotest.fail "no route");
  match Router.forward r1 (p "10.0.5.5/32") with
  | Some r -> Alcotest.check Testutil.asn "/16 for the rest" (a 6) (Route.origin r)
  | None -> Alcotest.fail "no route"

(* The longest-prefix setup, then AS 7 stops originating its /24:
   once the network settles again no router holds a route for it, and
   AS 1 forwards the /24's addresses toward AS 6's /16, exactly as a
   network that never originated the /24 does. *)
let test_withdrawal_propagates () =
  let net = diamond_net () in
  let r6 = Option.get (Network.router net (a 6)) in
  let r7 = Option.get (Network.router net (a 7)) in
  Router.originate r6 (p "10.0.0.0/16");
  Router.originate r7 (p "10.0.128.0/24");
  Network.run net;
  Router.withdraw_origin r7 (p "10.0.128.0/24");
  Network.run net;
  List.iter
    (fun n ->
      let r = Option.get (Network.router net (a n)) in
      Alcotest.(check bool)
        (Printf.sprintf "AS %d has no route for the /24" n)
        true
        (Router.best_route r (p "10.0.128.0/24") = None))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  let forward net n = Router.forward (Option.get (Network.router net (a n))) (p "10.0.128.5/32") in
  (match forward net 1 with
   | Some r -> Alcotest.check Testutil.asn "AS 1 forwards toward the /16" (a 6) (Route.origin r)
   | None -> Alcotest.fail "no route at 1");
  let never = diamond_net () in
  Router.originate (Option.get (Network.router never (a 6))) (p "10.0.0.0/16");
  Network.run never;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "AS %d forwards as if the /24 was never originated" n)
        true
        (Option.equal Route.equal (forward never n) (forward net n)))
    [ 1; 2; 3; 4; 5; 6; 7 ]

let test_rov_drops_hijack_in_messages () =
  (* A subprefix hijack at message level: AS 6 (the victim) originates
     168.122.0.0/16 and AS 7 (the attacker) the unannounced
     168.122.0.0/24 with itself as origin. AS 1 forwards traffic for
     168.122.0.1 to whichever origin wins. *)
  let winner ?rov_for () =
    let net = diamond_net ?rov_for () in
    Router.originate (Option.get (Network.router net (a 6))) (p "168.122.0.0/16");
    Network.run net;
    Router.originate (Option.get (Network.router net (a 7))) (p "168.122.0.0/24");
    Network.run net;
    match Router.forward (Option.get (Network.router net (a 1))) (p "168.122.0.1/32") with
    | Some r -> Route.origin r
    | None -> Alcotest.fail "no route at 1"
  in
  (* Without ROV the hijack wins by longest-prefix match. *)
  Alcotest.check Testutil.asn "hijacker wins without ROV" (a 7) (winner ());
  (* With ROV at ASes 1-5 the /24 is Invalid and dropped, under the
     minimal ROA and under the non-minimal maxLength ROA alike: the
     maxLength authorizes AS 6's subprefixes, not an origin-AS-7 one. *)
  List.iter
    (fun (label, vrps) ->
      let rov = Bgp.Rov.create (Rpki.Validation.create vrps) in
      Alcotest.check Testutil.asn (label ^ ": traffic stays with AS 6") (a 6)
        (winner ~rov_for:([ 1; 2; 3; 4; 5 ], rov) ()))
    [ ("minimal ROA", [ Rpki.Vrp.exact (p "168.122.0.0/16") (a 6) ]);
      ("non-minimal ROA", [ Rpki.Vrp.make_exn (p "168.122.0.0/16") ~max_len:24 (a 6) ]) ]

let test_traffic_engineering_export_filter () =
  (* The paper's §3 de-aggregation story at message level: AS 7
     announces its /16 to both providers but the /24 only to AS 4 —
     traffic for the /24 then prefers the AS 4 side everywhere. *)
  let net = diamond_net () in
  let r7 = Option.get (Network.router net (a 7)) in
  Router.originate r7 (p "168.122.0.0/16");
  Router.originate r7 (p "168.122.225.0/24");
  Router.set_export_filter r7 (a 5) (fun q -> not (Pfx.equal q (p "168.122.225.0/24")));
  Network.run net;
  let r2 = Option.get (Network.router net (a 2)) in
  (* AS 2 only hears the /24 via 1-4 (its peer side), never via its
     customer 5. *)
  (match Router.best_route r2 (p "168.122.225.0/24") with
   | Some r ->
     Alcotest.(check bool) "the /24 avoids AS 5" false (Route.loops_through r (a 5));
     Alcotest.(check bool) "goes via AS 4" true (Route.loops_through r (a 4))
   | None -> Alcotest.fail "no /24 at AS 2");
  (* The /16 still flows both ways: AS 2 reaches it through its
     customer 5 (preferred over the peer path). *)
  (match Router.best_route r2 (p "168.122.0.0/16") with
   | Some r -> Alcotest.(check bool) "the /16 via customer 5" true (Route.loops_through r (a 5))
   | None -> Alcotest.fail "no /16 at AS 2");
  (* Tightening the filter later withdraws the route. *)
  Router.set_export_filter r7 (a 4) (fun q -> not (Pfx.equal q (p "168.122.225.0/24")));
  Network.run net;
  Alcotest.(check bool) "withdrawn everywhere" true
    (Router.best_route r2 (p "168.122.225.0/24") = None);
  match Router.set_export_filter r7 (a 999) (fun _ -> true) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown neighbor accepted"

let test_duplicate_link_rejected () =
  let net = Network.create () in
  Network.add net (make_router 1);
  Network.add net (make_router 2);
  Network.connect net (a 1) (a 2) ~relation:Policy.Peer;
  (match Network.connect net (a 1) (a 2) ~relation:Policy.Peer with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "duplicate link accepted");
  match Network.connect net (a 1) (a 9) ~relation:Policy.Peer with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown router accepted"

(* --- differential: message-level network vs analytic simulator --- *)

let network_of_graph ~rov_of g =
  let net = Network.create () in
  List.iter (fun asn -> Network.add net (Router.create ?rov:(rov_of asn) ~asn ())) (G.as_list g);
  (* Each undirected edge once: iterate customers + peers with order
     guard. *)
  List.iter
    (fun asn ->
      List.iter
        (fun c -> Network.connect net asn c ~relation:Policy.Customer)
        (G.customers g asn);
      List.iter
        (fun q -> if Asnum.compare asn q < 0 then Network.connect net asn q ~relation:Policy.Peer)
        (G.peers g asn))
    (G.as_list g);
  net

(* Runs both models on one graph and one prefix's originations, with
   [rov_of asn] as that AS's import filter on both sides: every AS
   must select the same route, or none in both. *)
let models_agree ?(rov_of = fun _ -> None) g originations =
  let prefix = (snd (List.hd originations)).Route.prefix in
  let import_filter asn _ r =
    match rov_of asn with Some rov -> Bgp.Rov.accepts rov r | None -> true
  in
  let analytic = Topology.Propagate.run g ~originations ~import_filter () in
  let net = network_of_graph ~rov_of g in
  List.iter
    (fun (asn, _) -> Router.originate (Option.get (Network.router net asn)) prefix)
    originations;
  Network.run net;
  List.for_all
    (fun asn ->
      let message_route =
        Option.bind (Network.router net asn) (fun r -> Router.best_route r prefix)
      in
      let analytic_route = Option.map snd (Asnum.Map.find_opt asn analytic) in
      match message_route, analytic_route with
      | None, None -> true
      | Some m, Some x -> Route.equal m x
      | Some _, None | None, Some _ -> false)
    (G.as_list g)

(* Two inputs per topology: the last stub (the victim) alone
   originates a /16, with no filter; then the first stub (the
   attacker) originates the same /16 too, the victim holds a minimal
   ROA, and a random half of the ASes drop Invalid routes, through the
   same Bgp.Rov on both sides. *)
let prop_agrees_with_propagate =
  QCheck2.Test.make ~name:"message-level network matches analytic propagation" ~count:50
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 10_000))
    (fun (seed, rov_seed) ->
      let g =
        Topology.Gen.generate
          ~params:{ Topology.Gen.default_params with Topology.Gen.n_as = 24; n_tier1 = 3 }
          ~seed ()
      in
      let stubs = List.filter (G.is_stub g) (G.as_list g) in
      let victim = List.hd (List.rev stubs) and attacker = List.hd stubs in
      let prefix = p "10.0.0.0/16" in
      let rov = Bgp.Rov.create (Rpki.Validation.create [ Rpki.Vrp.exact prefix victim ]) in
      let rng = Rng.create rov_seed in
      let filtering = List.filter (fun _ -> Rng.bool rng) (G.as_list g) in
      let rov_of asn = if List.exists (Asnum.equal asn) filtering then Some rov else None in
      models_agree g [ (victim, Route.originate prefix victim) ]
      && models_agree ~rov_of g
           [ (victim, Route.originate prefix victim); (attacker, Route.originate prefix attacker) ])

(* The data plane's longest-prefix-match law: a lone router that
   originates every generated prefix forwards each destination along
   the route of the longest one covering it, or drops it. *)
let prop_forward_is_lpm =
  let open QCheck2 in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 1 40) Testutil.gen_clustered_v4_prefix)
      Testutil.gen_clustered_v4_prefix
  in
  Test.make ~name:"forward picks the longest covering prefix" ~count:300 gen
    (fun (prefixes, dst) ->
      let net = Network.create () in
      let r = make_router 1 in
      Network.add net r;
      List.iter (Router.originate r) prefixes;
      Network.run net;
      let expected =
        List.filter (fun q -> Pfx.subset dst q) prefixes
        |> List.fold_left
             (fun acc q ->
               match acc with
               | Some best when Pfx.length best >= Pfx.length q -> acc
               | _ -> Some q)
             None
      in
      match Router.forward r dst, expected with
      | None, None -> true
      | Some route, Some q -> Pfx.equal route.Route.prefix q
      | Some _, None | None, Some _ -> false)

let () =
  Alcotest.run "bgp.router"
    [ ( "network",
        [ Alcotest.test_case "diamond exchange" `Quick test_diamond_exchange;
          Alcotest.test_case "forwarding" `Quick test_forwarding_after_origination;
          Alcotest.test_case "longest-prefix forwarding" `Quick test_longest_prefix_forwarding;
          Alcotest.test_case "withdrawal" `Quick test_withdrawal_propagates;
          Alcotest.test_case "ROV drops the hijack" `Quick test_rov_drops_hijack_in_messages;
          Alcotest.test_case "bad connects rejected" `Quick test_duplicate_link_rejected;
          Alcotest.test_case "traffic engineering via export filters" `Quick
            test_traffic_engineering_export_filter ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_agrees_with_propagate ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_forward_is_lpm ]) ]
