module G = Topology.As_graph
module Gen = Topology.Gen
module Propagate = Topology.Propagate
module Policy = Bgp.Policy
module Route = Bgp.Route
module Asnum = Rpki.Asnum

let p = Testutil.p4
let a = Testutil.a

(* A small hand-built topology:

       1 --- 2        (tier-1 peers)
      / \     \
     3   4     5      (mid: customers of tier-1s)
    /     \   /
   6       7          (stubs; 7 multihomes to 4 and 5)
*)
let diamond () =
  let g = G.create () in
  G.peer g (a 1) (a 2);
  G.link g ~customer:(a 3) ~provider:(a 1);
  G.link g ~customer:(a 4) ~provider:(a 1);
  G.link g ~customer:(a 5) ~provider:(a 2);
  G.link g ~customer:(a 6) ~provider:(a 3);
  G.link g ~customer:(a 7) ~provider:(a 4);
  G.link g ~customer:(a 7) ~provider:(a 5);
  g

let test_graph_basics () =
  let g = diamond () in
  Alcotest.(check int) "as count" 7 (G.as_count g);
  Alcotest.(check int) "edge count" 7 (G.edge_count g);
  Alcotest.(check bool) "1 sees 3 as customer" true
    (G.relation g ~of_:(a 1) ~with_:(a 3) = Some Policy.Customer);
  Alcotest.(check bool) "3 sees 1 as provider" true
    (G.relation g ~of_:(a 3) ~with_:(a 1) = Some Policy.Provider);
  Alcotest.(check bool) "1-2 peers" true (G.relation g ~of_:(a 1) ~with_:(a 2) = Some Policy.Peer);
  Alcotest.(check bool) "unrelated" true (G.relation g ~of_:(a 3) ~with_:(a 5) = None);
  Alcotest.(check bool) "6 is stub" true (G.is_stub g (a 6));
  Alcotest.(check bool) "3 is not" false (G.is_stub g (a 3));
  Alcotest.(check (list int)) "customers of 1" [ 4; 3 ]
    (List.map Asnum.to_int (G.customers g (a 1)));
  (match G.link g ~customer:(a 3) ~provider:(a 1) with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "duplicate edge accepted");
  match G.peer g (a 9) (a 9) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self link accepted"

let test_propagation_reaches_everyone () =
  let g = diamond () in
  let origin = Route.originate (p "10.0.0.0/16") (a 6) in
  let outcome = Propagate.run g ~originations:[ (a 6, origin) ] () in
  Alcotest.(check int) "all 7 ASes have a route" 7 (Asnum.Map.cardinal outcome);
  (* Everyone's path ends at the origin. *)
  Asnum.Map.iter
    (fun _ (_, r) -> Alcotest.check Testutil.asn "origin" (a 6) (Route.origin r))
    outcome;
  (* AS 3 hears it directly from its customer 6. *)
  (match Asnum.Map.find (a 3) outcome with
   | lf, r ->
     Alcotest.(check bool) "3 learns from customer" true (lf = Policy.From Policy.Customer);
     Alcotest.(check (list int)) "3's path" [ 3; 6 ] (List.map Asnum.to_int r.Route.as_path));
  (* AS 5 must go via its provider 2 (peer of 1). *)
  match Asnum.Map.find (a 5) outcome with
  | _, r -> Alcotest.(check (list int)) "5's path" [ 5; 2; 1; 3; 6 ] (List.map Asnum.to_int r.Route.as_path)

let test_valley_free () =
  (* 7 multihomes to 4 and 5. A route originated by 6 reaches 7, but 7
     must never transit it between its two providers: 4 and 5 must not
     learn anything through 7. *)
  let g = diamond () in
  let origin = Route.originate (p "10.0.0.0/16") (a 6) in
  let outcome = Propagate.run g ~originations:[ (a 6, origin) ] () in
  let check_no_valley asn =
    let _, r = Asnum.Map.find (a asn) outcome in
    Alcotest.(check bool)
      (Printf.sprintf "AS %d does not route through the stub 7" asn)
      false
      (Route.loops_through r (a 7))
  in
  List.iter check_no_valley [ 1; 2; 3; 4; 5 ]

let test_customer_preference () =
  (* 1 can reach a prefix originated by 7 via customer 4 (1,4,7) or via
     peer 2 (1,2,5,7); it must pick the customer route. *)
  let g = diamond () in
  let origin = Route.originate (p "10.0.0.0/16") (a 7) in
  let outcome = Propagate.run g ~originations:[ (a 7, origin) ] () in
  let lf, r = Asnum.Map.find (a 1) outcome in
  Alcotest.(check bool) "customer route" true (lf = Policy.From Policy.Customer);
  Alcotest.(check (list int)) "path via 4" [ 1; 4; 7 ] (List.map Asnum.to_int r.Route.as_path)

let test_import_filter_blocks () =
  let g = diamond () in
  let origin = Route.originate (p "10.0.0.0/16") (a 6) in
  (* AS 1 refuses the route entirely: it and anyone who'd route through
     it must find another way or none. 3 still has it (from 6). *)
  let filter asn (_ : Policy.relation) (_ : Route.t) = not (Asnum.equal asn (a 1)) in
  let outcome = Propagate.run g ~originations:[ (a 6, origin) ] ~import_filter:filter () in
  Alcotest.(check bool) "1 has no route" true (Option.is_none (Asnum.Map.find_opt (a 1) outcome));
  Alcotest.(check bool) "3 still has it" true (Option.is_some (Asnum.Map.find_opt (a 3) outcome));
  (* 2 can only reach 6 via 1, so it has no route either. *)
  Alcotest.(check bool) "2 cut off" true (Option.is_none (Asnum.Map.find_opt (a 2) outcome))

let test_competing_origins_split () =
  (* Two origins for the same prefix: each AS picks the nearer one
     (by policy); both sides capture someone. *)
  let g = diamond () in
  let prefix = p "10.0.0.0/16" in
  let outcome =
    Propagate.run g
      ~originations:[ (a 6, Route.originate prefix (a 6)); (a 7, Route.originate prefix (a 7)) ]
      ()
  in
  let to6 =
    Asnum.Map.fold (fun _ (_, r) acc -> if Asnum.equal (Route.origin r) (a 6) then acc + 1 else acc) outcome 0
  in
  let to7 = Asnum.Map.cardinal outcome - to6 in
  Alcotest.(check bool) "both attract traffic" true (to6 >= 2 && to7 >= 2);
  Alcotest.(check int) "everyone routed" 7 (Asnum.Map.cardinal outcome)

let test_loop_prevention () =
  (* An origination whose forged path already contains a neighbor
     blocks propagation through that neighbor. *)
  let g = diamond () in
  let forged = Route.make_exn (p "10.0.0.0/16") [ a 6; a 3 ] in
  let outcome = Propagate.run g ~originations:[ (a 6, forged) ] () in
  (* 3 must ignore it (its own AS in the path). *)
  Alcotest.(check bool) "3 rejects looped route" true (Option.is_none (Asnum.Map.find_opt (a 3) outcome))

let test_mixed_prefix_rejected () =
  let g = diamond () in
  match
    Propagate.run g
      ~originations:
        [ (a 6, Route.originate (p "10.0.0.0/16") (a 6));
          (a 7, Route.originate (p "11.0.0.0/16") (a 7)) ]
      ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mixed prefixes accepted"

(* --- generator invariants --- *)

let test_generator_shape () =
  let params = { Gen.default_params with Gen.n_as = 300 } in
  let g = Gen.generate ~params ~seed:11 () in
  Alcotest.(check int) "as count" 300 (G.as_count g);
  (* Tier-1 clique is fully peered. *)
  for i = 1 to params.Gen.n_tier1 do
    for j = i + 1 to params.Gen.n_tier1 do
      Alcotest.(check bool) "tier1 peered" true
        (G.relation g ~of_:(a i) ~with_:(a j) = Some Policy.Peer)
    done
  done;
  (* Providers always have lower AS numbers: the hierarchy is acyclic. *)
  List.iter
    (fun asn ->
      List.iter
        (fun prov ->
          Alcotest.(check bool) "provider is older" true (Asnum.compare prov asn < 0))
        (G.providers g asn))
    (G.as_list g);
  (* Every non-tier-1 AS has at least one provider (connectivity). *)
  List.iter
    (fun asn ->
      if Asnum.to_int asn > params.Gen.n_tier1 then
        Alcotest.(check bool) "has provider" true (G.providers g asn <> []))
    (G.as_list g)

let test_generator_deterministic () =
  let params = { Gen.default_params with Gen.n_as = 120 } in
  let g1 = Gen.generate ~params ~seed:5 () and g2 = Gen.generate ~params ~seed:5 () in
  Alcotest.(check int) "same edges" (G.edge_count g1) (G.edge_count g2);
  let g3 = Gen.generate ~params ~seed:6 () in
  (* Different seeds virtually always give different graphs. *)
  Alcotest.(check bool) "different seed differs" true
    (G.edge_count g1 <> G.edge_count g3
     || List.exists
          (fun asn -> G.providers g1 asn <> G.providers g3 asn)
          (G.as_list g1))

(* --- metrics --- *)

(* Sanity metrics over AS graphs and propagation outcomes: generated
   topologies must look like the Internet (hierarchy depth,
   heavy-tailed degrees, short average paths), the properties the
   attack results implicitly rely on. *)
module Metrics = struct
  let degree g asn = List.length (G.neighbors g asn)

  (* (min, mean, max) over all ASes. *)
  let degree_stats g =
    let degrees = List.map (degree g) (G.as_list g) in
    let n = max 1 (List.length degrees) in
    let sum = List.fold_left ( + ) 0 degrees in
    ( List.fold_left min max_int degrees,
      float_of_int sum /. float_of_int n,
      List.fold_left max 0 degrees )

  (* ASes reachable by walking provider→customer edges, the AS itself
     included: its customer cone (CAIDA's ranking metric). *)
  let customer_cone_size g asn =
    let seen = Asnum.Tbl.create 64 in
    let rec visit a =
      if not (Asnum.Tbl.mem seen a) then begin
        Asnum.Tbl.replace seen a ();
        List.iter visit (G.customers g a)
      end
    in
    visit asn;
    Asnum.Tbl.length seen

  (* Selected AS-path lengths across the ASes holding a route. *)
  let path_lengths outcome =
    Asnum.Map.fold (fun _ (_, r) acc -> Route.path_length r :: acc) outcome []

  let mean_path_length outcome =
    match path_lengths outcome with
    | [] -> 0.0
    | ls -> float_of_int (List.fold_left ( + ) 0 ls) /. float_of_int (List.length ls)

  let max_path_length outcome = List.fold_left max 0 (path_lengths outcome)

  (* Fraction of ASes holding a route. *)
  let reachability g outcome =
    if G.as_count g = 0 then 0.0
    else float_of_int (Asnum.Map.cardinal outcome) /. float_of_int (G.as_count g)
end

let test_metrics_diamond () =
  let g = diamond () in
  Alcotest.(check int) "degree of 1" 3 (Metrics.degree g (a 1));
  Alcotest.(check int) "cone of 1" 5 (Metrics.customer_cone_size g (a 1));
  Alcotest.(check int) "cone of stub" 1 (Metrics.customer_cone_size g (a 6));
  let origin = Route.originate (p "10.0.0.0/16") (a 6) in
  let outcome = Propagate.run g ~originations:[ (a 6, origin) ] () in
  Alcotest.(check (float 0.001)) "full reachability" 1.0 (Metrics.reachability g outcome);
  Alcotest.(check int) "max path" 5 (Metrics.max_path_length outcome);
  Alcotest.(check bool) "mean below max" true
    (Metrics.mean_path_length outcome <= 5.0)

let test_metrics_generated_shape () =
  (* Internet-like shape: some big cones, short average paths. *)
  let g = Gen.generate ~params:{ Gen.default_params with Gen.n_as = 400 } ~seed:3 () in
  let dmin, dmean, dmax = Metrics.degree_stats g in
  Alcotest.(check bool) "hierarchical degrees" true (dmin >= 1 && dmax > 20 && dmean > 1.5);
  let tier1_cone = Metrics.customer_cone_size g (a 1) in
  Alcotest.(check bool) "tier-1 cone is large" true (tier1_cone > 100);
  let stub = List.find (G.is_stub g) (List.rev (G.as_list g)) in
  let outcome = Propagate.run g ~originations:[ (stub, Route.originate (p "10.0.0.0/16") stub) ] () in
  Alcotest.(check bool) "short mean paths" true (Metrics.mean_path_length outcome < 7.0)

let prop_propagation_no_loops =
  QCheck2.Test.make ~name:"no selected route contains a duplicate AS" ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let g = Gen.generate ~params:{ Gen.default_params with Gen.n_as = 80 } ~seed () in
      let stub =
        List.find (fun asn -> G.is_stub g asn) (List.rev (G.as_list g))
      in
      let outcome = Propagate.run g ~originations:[ (stub, Route.originate (p "10.0.0.0/16") stub) ] () in
      Asnum.Map.for_all
        (fun _ (_, r) ->
          let sorted = List.sort Asnum.compare r.Route.as_path in
          List.length (List.sort_uniq Asnum.compare sorted) = List.length sorted)
        outcome)

let prop_propagation_complete =
  (* With a connected hierarchy, every AS gets a route to a stub's
     prefix when no filtering is in place. *)
  QCheck2.Test.make ~name:"unfiltered propagation reaches every AS" ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let g = Gen.generate ~params:{ Gen.default_params with Gen.n_as = 80 } ~seed () in
      let stub = List.find (fun asn -> G.is_stub g asn) (List.rev (G.as_list g)) in
      let outcome = Propagate.run g ~originations:[ (stub, Route.originate (p "10.0.0.0/16") stub) ] () in
      Asnum.Map.cardinal outcome = G.as_count g)

let () =
  Alcotest.run "topology"
    [ ( "graph",
        [ Alcotest.test_case "basics" `Quick test_graph_basics ] );
      ( "propagation",
        [ Alcotest.test_case "reaches everyone" `Quick test_propagation_reaches_everyone;
          Alcotest.test_case "valley-free" `Quick test_valley_free;
          Alcotest.test_case "customer preference" `Quick test_customer_preference;
          Alcotest.test_case "import filter" `Quick test_import_filter_blocks;
          Alcotest.test_case "competing origins" `Quick test_competing_origins_split;
          Alcotest.test_case "loop prevention" `Quick test_loop_prevention;
          Alcotest.test_case "mixed prefixes rejected" `Quick test_mixed_prefix_rejected ] );
      ( "generator",
        [ Alcotest.test_case "shape invariants" `Quick test_generator_shape;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic ] );
      ( "metrics",
        [ Alcotest.test_case "diamond" `Quick test_metrics_diamond;
          Alcotest.test_case "generated shape" `Quick test_metrics_generated_shape ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_propagation_no_loops; prop_propagation_complete ] ) ]
