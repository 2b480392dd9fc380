(* Figure 1, live: a signed RPKI repository is validated by the local
   cache, scanned into PDUs, compressed, and pushed to two routers over
   the RPKI-to-Router protocol; then BU hardens its ROA and the update
   flows through incrementally.

   Run with: dune exec examples/rtr_session.exe *)

let p = Netaddr.Pfx.of_string_exn
let asn = Rpki.Asnum.of_int

let print_router_state label router =
  Format.printf "%s: synced=%b serial=%s, %d VRPs@." label
    (Rtr.Router_client.synced router)
    (match Rtr.Router_client.serial router with
     | Some s -> Int32.to_string s
     | None -> "-")
    (Rpki.Vrp.Set.cardinal (Rtr.Router_client.vrps router))

let () =
  (* --- The RPKI side: trust anchor -> RIR CA -> signed ROAs --- *)
  let repo = Rpki.Repository.create ~seed:"figure-1" "iana-sim" in
  let arin =
    Result.get_ok
      (Rpki.Repository.add_ca repo
         ~parent:(Rpki.Repository.root repo)
         ~name:"arin-sim"
         ~resources:[ p "168.0.0.0/6" ]
         ~as_resources:[ asn 111 ] ~height:4 ())
  in
  let vulnerable = Result.get_ok (Rpki.Roa.of_simple (asn 111) [ ("168.122.0.0/16", Some 24) ]) in
  let vulnerable_name = Result.get_ok (Rpki.Repository.issue_roa repo arin vulnerable) in
  Format.printf "Published %d signed object(s), %d bytes on the wire.@."
    (Rpki.Repository.object_count repo)
    (Rpki.Repository.size_on_wire repo);

  (* --- The local cache: validate, scan, compress --- *)
  let vrps, rejections = Rpki.Scan_roas.scan repo in
  assert (rejections = []);
  let pdus = Mlcore.Compress.run vrps in
  Format.printf "Local cache: %d validated VRP(s) -> %d PDU(s) after compress_roas.@."
    (List.length vrps) (List.length pdus);

  (* --- RTR: two routers sync from the cache --- *)
  let cache = Rtr.Cache_server.create pdus in
  let session = Rtr.Session.connect cache 2 in
  let r1, r2 =
    match Rtr.Session.routers session with [ a; b ] -> (a, b) | _ -> assert false
  in
  print_router_state "router-1" r1;
  print_router_state "router-2" r2;

  (* --- A router applies origin validation at the BGP border --- *)
  let rov_db router = Rpki.Validation.create (Rpki.Vrp.Set.elements (Rtr.Router_client.vrps router)) in
  let hijack = Bgp.Route.make_exn (p "168.122.0.0/24") [ asn 666; asn 111 ] in
  let show_decision tag router =
    let rov = Bgp.Rov.create (rov_db router) in
    Format.printf "%s: %s -> %s (%s)@." tag
      (Bgp.Route.to_string hijack)
      (Rpki.Validation.state_to_string (Bgp.Rov.state_of rov hijack))
      (if Bgp.Rov.accepts rov hijack then "ACCEPTED" else "dropped")
  in
  Format.printf "@.Before hardening (non-minimal maxLength ROA):@.";
  show_decision "router-1" r1;

  (* --- BU hardens: revoke the maxLength ROA, publish a minimal one --- *)
  let minimal =
    Result.get_ok
      (Rpki.Roa.of_simple (asn 111) [ ("168.122.0.0/16", None); ("168.122.225.0/24", None) ])
  in
  Result.get_ok (Rpki.Repository.revoke repo vulnerable_name);
  ignore (Result.get_ok (Rpki.Repository.issue_roa repo arin minimal));
  let vrps2, _ = Rpki.Scan_roas.scan repo in
  Format.printf "@.BU revokes the maxLength ROA and publishes a minimal one@.\
                 (the cache serial bumps; routers sync the delta):@.";
  Rtr.Session.publish session (Mlcore.Compress.run vrps2);
  print_router_state "router-1" r1;
  print_router_state "router-2" r2;
  Format.printf "@.After hardening (minimal ROA):@.";
  show_decision "router-1" r1;
  Format.printf "@.Total RTR bytes exchanged: %d@." (Rtr.Session.bytes_on_wire session)
