(* End-to-end: the full Figure 1 pipeline.

   repository (signed objects) -> relying-party validation ->
   scan_roas -> compress_roas -> RTR cache -> RTR router -> BGP origin
   validation at the border.

   Then an update flows through: BU hardens its non-minimal ROA into a
   minimal one, and the forged-origin subprefix hijack that was
   accepted before is dropped after. *)

module Repo = Rpki.Repository
module Roa = Rpki.Roa
module V = Rpki.Validation
module Route = Bgp.Route

let p = Testutil.p4
let a = Testutil.a

let build_repo () =
  let repo = Repo.create ~seed:"integration" "iana-sim" in
  let arin =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:(Repo.root repo) ~name:"arin-sim"
         ~resources:[ p "168.0.0.0/6"; p "87.0.0.0/8" ]
         ~as_resources:[ a 111; a 31283 ] ~height:4 ())
  in
  (repo, arin)

let vulnerable_roa = lazy (Testutil.check_ok (Roa.of_simple (a 111) [ ("168.122.0.0/16", Some 24) ]))

let minimal_roa =
  lazy
    (Testutil.check_ok
       (Roa.of_simple (a 111) [ ("168.122.0.0/16", None); ("168.122.225.0/24", None) ]))

let fig2_roa =
  lazy
    (Testutil.check_ok
       (Roa.of_simple (a 31283)
          [ ("87.254.32.0/19", None); ("87.254.32.0/20", None); ("87.254.48.0/20", None);
            ("87.254.32.0/21", None) ]))

let test_full_pipeline () =
  let repo, arin = build_repo () in
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (Lazy.force vulnerable_roa)));
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (Lazy.force fig2_roa)));
  (* Local cache: validate + scan. *)
  let vrps, rejections = Rpki.Scan_roas.scan repo in
  Alcotest.(check int) "no rejections" 0 (List.length rejections);
  Alcotest.(check int) "five tuples" 5 (List.length vrps);
  (* Local cache: compress (Figure 2 collapses 4 -> 2). *)
  let compressed = Mlcore.Compress.run vrps in
  Alcotest.(check int) "after compression" 3 (List.length compressed);
  (* Push over RTR to two routers. *)
  let cache = Rtr.Cache_server.create compressed in
  let session = Rtr.Session.connect cache 2 in
  let router = List.hd (Rtr.Session.routers session) in
  Alcotest.(check bool) "router synced" true (Rtr.Router_client.synced router);
  (* The router validates BGP announcements against what it received. *)
  let db = V.create (Rpki.Vrp.Set.elements (Rtr.Router_client.vrps router)) in
  let rov = Bgp.Rov.create db in
  let legit = Route.make_exn (p "168.122.0.0/16") [ a 3356; a 111 ] in
  let hijack = Route.make_exn (p "168.122.0.0/24") [ a 666; a 111 ] in
  let fig2_legit = Route.make_exn (p "87.254.40.0/21") [ a 31283 ] in
  Alcotest.(check bool) "legit accepted" true (Bgp.Rov.accepts rov legit);
  (* The vulnerable ROA lets the forged-origin subprefix hijack
     through... *)
  Alcotest.(check bool) "hijack accepted (vulnerable ROA)" true (Bgp.Rov.accepts rov hijack);
  (* ...and compression did not add authorization: 87.254.40.0/21 was
     not in the Figure 2 ROA and stays invalid. *)
  Alcotest.(check bool) "compression added nothing" false (Bgp.Rov.accepts rov fig2_legit)

let test_hardening_update_via_rtr () =
  let repo, arin = build_repo () in
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (Lazy.force vulnerable_roa)));
  let vrps0, _ = Rpki.Scan_roas.scan repo in
  let cache = Rtr.Cache_server.create (Mlcore.Compress.run vrps0) in
  let session = Rtr.Session.connect cache 1 in
  let router = List.hd (Rtr.Session.routers session) in
  let hijack = Route.make_exn (p "168.122.0.0/24") [ a 666; a 111 ] in
  let accepted_before =
    Bgp.Rov.accepts
      (Bgp.Rov.create
         (V.create (Rpki.Vrp.Set.elements (Rtr.Router_client.vrps router))))
      hijack
  in
  Alcotest.(check bool) "hijack valid before hardening" true accepted_before;
  (* BU replaces its ROA with the minimal one (new object, old one
     withdrawn: we model by publishing the minimal ROA and recomputing
     the validated set from it alone in a fresh repo). *)
  let repo2, arin2 = build_repo () in
  ignore (Testutil.check_ok (Repo.issue_roa repo2 arin2 (Lazy.force minimal_roa)));
  let vrps1, _ = Rpki.Scan_roas.scan repo2 in
  Rtr.Session.publish session (Mlcore.Compress.run vrps1);
  Alcotest.(check bool) "router resynced" true (Rtr.Router_client.synced router);
  let db = V.create (Rpki.Vrp.Set.elements (Rtr.Router_client.vrps router)) in
  let rov = Bgp.Rov.create db in
  Alcotest.(check bool) "hijack dropped after hardening" false (Bgp.Rov.accepts rov hijack);
  (* Legitimate announcements keep flowing. *)
  Alcotest.(check bool) "own /16 ok" true
    (Bgp.Rov.accepts rov (Route.make_exn (p "168.122.0.0/16") [ a 111 ]));
  Alcotest.(check bool) "announced /24 ok" true
    (Bgp.Rov.accepts rov (Route.make_exn (p "168.122.225.0/24") [ a 111 ]))

let test_tampered_repo_to_router () =
  (* A tampered object never reaches the router's VRP set. *)
  let repo, arin = build_repo () in
  let name = Testutil.check_ok (Repo.issue_roa repo arin (Lazy.force vulnerable_roa)) in
  Testutil.check_ok (Repo.tamper repo name);
  let vrps, rejections = Rpki.Scan_roas.scan repo in
  Alcotest.(check int) "tampered object rejected" 1 (List.length rejections);
  Alcotest.(check int) "no tuples" 0 (List.length vrps);
  let cache = Rtr.Cache_server.create vrps in
  let session = Rtr.Session.connect cache 1 in
  let router = List.hd (Rtr.Session.routers session) in
  Alcotest.(check int) "router has nothing" 0
    (Rpki.Vrp.Set.cardinal (Rtr.Router_client.vrps router))

let test_csv_pipeline_roundtrip () =
  (* The scan_roas CSV interface composes with compress: parse(print(x))
     = x, and compression via CSV matches in-memory compression. *)
  let repo, arin = build_repo () in
  ignore (Testutil.check_ok (Repo.issue_roa repo arin (Lazy.force fig2_roa)));
  let vrps, _ = Rpki.Scan_roas.scan repo in
  let csv = Rpki.Scan_roas.to_csv vrps in
  let parsed = Testutil.check_ok (Rpki.Scan_roas.of_csv csv) in
  Alcotest.(check (list Testutil.vrp)) "csv roundtrip" vrps parsed;
  Alcotest.(check (list Testutil.vrp)) "compress after csv" (Mlcore.Compress.run vrps)
    (Mlcore.Compress.run parsed)

let test_local_cache_runtime () =
  (* Two "RIR" repositories feeding one local cache: five scanned
     tuples compress to three, and the routers sync those. *)
  let repo1, arin1 = build_repo () in
  let repo2 = Rpki.Repository.create ~seed:"integration-2" "iana-sim-2" in
  let ripe =
    Testutil.check_ok
      (Rpki.Repository.add_ca repo2 ~parent:(Rpki.Repository.root repo2) ~name:"ripe-sim"
         ~resources:[ p "87.0.0.0/8" ] ~as_resources:[ a 31283 ] ~height:4 ())
  in
  ignore (Testutil.check_ok (Rpki.Repository.issue_roa repo1 arin1 (Lazy.force vulnerable_roa)));
  ignore (Testutil.check_ok (Rpki.Repository.issue_roa repo2 ripe (Lazy.force fig2_roa)));
  let cache = Mlcore.Local_cache.create [ repo1; repo2 ] in
  let scanned =
    List.concat_map (fun r -> fst (Rpki.Scan_roas.scan r)) [ repo1; repo2 ]
  in
  Alcotest.(check int) "five tuples scanned" 5 (List.length scanned);
  Alcotest.(check (list Testutil.vrp))
    "serves the compressed scan" (Mlcore.Compress.run scanned) (Mlcore.Local_cache.vrps cache);
  Alcotest.(check int) "three served after compression" 3
    (List.length (Mlcore.Local_cache.vrps cache));
  let session = Rtr.Session.connect (Mlcore.Local_cache.server cache) 2 in
  List.iter
    (fun router ->
      Alcotest.(check int) "router got them" 3
        (Rpki.Vrp.Set.cardinal (Rtr.Router_client.vrps router)))
    (Rtr.Session.routers session)

let test_full_stack_synthetic_corpus () =
  (* A small synthetic snapshot pushed through the REAL stack: every
     generated ROA is signed into a repository, cryptographically
     validated, scanned, compressed and served over RTR — and the
     result equals the direct (crypto-less) pipeline the experiments
     use at scale. *)
  let snap = Dataset.Snapshot.generate ~params:(Dataset.Snapshot.scaled 0.001) ~seed:77 () in
  let roas = snap.Dataset.Snapshot.roas in
  Alcotest.(check bool) "corpus nonempty" true (List.length roas > 3);
  let repo = Repo.create ~seed:"full-stack" "ta" in
  let asns = List.sort_uniq Rpki.Asnum.compare (List.map Roa.asn roas) in
  let rir =
    Testutil.check_ok
      (Repo.add_ca repo ~parent:(Repo.root repo) ~name:"rir"
         ~resources:[ p "0.0.0.0/0"; Netaddr.Pfx.of_string_exn "::/0" ]
         ~as_resources:asns ~height:10 ())
  in
  List.iter (fun roa -> ignore (Testutil.check_ok (Repo.issue_roa repo rir roa))) roas;
  let outcome = Repo.validate repo in
  Alcotest.(check int) "all ROAs validate" (List.length roas) (List.length outcome.Repo.valid_roas);
  Alcotest.(check int) "no rejections" 0 (List.length outcome.Repo.rejections);
  let cache = Mlcore.Local_cache.create [ repo ] in
  (* Served set equals the direct pipeline used by the benches. *)
  let direct = Mlcore.Compress.run (Dataset.Snapshot.vrps snap) in
  Alcotest.(check (list Testutil.vrp)) "crypto and direct pipelines agree" direct
    (Mlcore.Local_cache.vrps cache);
  (* And a router syncs exactly that set. *)
  let session = Rtr.Session.connect (Mlcore.Local_cache.server cache) 1 in
  let router = List.hd (Rtr.Session.routers session) in
  Alcotest.(check int) "router holds the served set" (List.length direct)
    (Rpki.Vrp.Set.cardinal (Rtr.Router_client.vrps router))

let () =
  Alcotest.run "integration"
    [ ( "figure 1 pipeline",
        [ Alcotest.test_case "repository to router" `Quick test_full_pipeline;
          Alcotest.test_case "hardening update over RTR" `Quick test_hardening_update_via_rtr;
          Alcotest.test_case "tampered object stops at the cache" `Quick test_tampered_repo_to_router;
          Alcotest.test_case "csv interface" `Quick test_csv_pipeline_roundtrip;
          Alcotest.test_case "local cache runtime" `Quick test_local_cache_runtime;
          Alcotest.test_case "full stack on a synthetic corpus" `Quick
            test_full_stack_synthetic_corpus ] ) ]
