module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Route = Bgp.Route
module Policy = Bgp.Policy
module Rov = Bgp.Rov
module Msg = Bgp_msg
module Session = Bgp_session

type peer = {
  remote : Asnum.t;
  session : Session.t;
  relation : Policy.relation; (* what the remote is to me *)
  mutable advertised : Route.t Pfx.Map.t; (* Adj-RIB-Out *)
  mutable export_filter : Pfx.t -> bool;
}

type t = {
  asn : Asnum.t;
  rov : Rov.t option;
  mutable peers : peer list;
  mutable originated : Pfx.Set.t;
  mutable loc_rib : (Policy.learned_from * Route.t) Pfx.Map.t;
}

let create ?rov ~asn () =
  { asn; rov; peers = []; originated = Pfx.Set.empty; loc_rib = Pfx.Map.empty }

let asn t = t.asn

let originate t prefix = t.originated <- Pfx.Set.add prefix t.originated
let withdraw_origin t prefix = t.originated <- Pfx.Set.remove prefix t.originated

let set_export_filter t remote filter =
  match List.find_opt (fun p -> Asnum.equal p.remote remote) t.peers with
  | Some peer -> peer.export_filter <- filter
  | None -> invalid_arg "Bgp_router.set_export_filter: unknown neighbor"

(* Recompute the Loc-RIB from own originations and every peer's
   Adj-RIB-In. Selected routes are stored in announcement form (our
   own AS at the head), which is also what we export. *)
let decide t =
  let candidates : (Policy.learned_from * Route.t) list Pfx.Tbl.t = Pfx.Tbl.create 64 in
  let add p c =
    Pfx.Tbl.replace candidates p
      (c :: (match Pfx.Tbl.find_opt candidates p with Some l -> l | None -> []))
  in
  Pfx.Set.iter (fun p -> add p (Policy.Self, Route.originate p t.asn)) t.originated;
  List.iter
    (fun peer ->
      List.iter
        (fun (r : Route.t) ->
          let accepted =
            match t.rov with Some rov -> Rov.accepts rov r | None -> true
          in
          if accepted then
            add r.Route.prefix (Policy.From peer.relation, Route.prepend t.asn r))
        (Session.routes_in peer.session))
    t.peers;
  t.loc_rib <-
    Pfx.Tbl.fold
      (fun p cands acc ->
        match cands with
        | [] -> acc
        | c :: cs ->
          let best =
            List.fold_left (fun b c -> if Policy.better c b < 0 then c else b) c cs
          in
          Pfx.Map.add p best acc)
      candidates Pfx.Map.empty

let best_route t p = Option.map snd (Pfx.Map.find_opt p t.loc_rib)

let forward t p =
  Pfx.Map.fold
    (fun q (_, r) acc ->
      if Pfx.subset p q then
        match acc with
        | Some (best_q, _) when Pfx.length best_q >= Pfx.length q -> acc
        | _ -> Some (q, r)
      else acc)
    t.loc_rib None
  |> Option.map snd

(* Bring one peer's Adj-RIB-Out in line with the Loc-RIB; returns true
   when any UPDATE went out. *)
let sync_exports t peer =
  if not (Session.established peer.session) then false
  else begin
    let desired =
      Pfx.Map.filter_map
        (fun prefix (lf, route) ->
          let to_sender =
            match route.Route.as_path with
            | _ :: nh :: _ -> Asnum.equal nh peer.remote (* split horizon *)
            | _ -> false
          in
          if (not to_sender) && Policy.exports_to lf peer.relation && peer.export_filter prefix
          then Some route
          else None)
        t.loc_rib
    in
    let changed = ref false in
    Pfx.Map.iter
      (fun p route ->
        match Pfx.Map.find_opt p peer.advertised with
        | Some old when Route.equal old route -> ()
        | Some _ | None ->
          (match Session.announce peer.session route with
           | Ok () -> changed := true
           | Error _ -> ()))
      desired;
    Pfx.Map.iter
      (fun p _ ->
        if not (Pfx.Map.mem p desired) then
          match Session.withdraw peer.session p with
          | Ok () -> changed := true
          | Error _ -> ())
      peer.advertised;
    peer.advertised <- desired;
    !changed
  end

module Network = struct
  type router = t

  type link = { a : peer; b : peer }

  type nonrec t = {
    routers : router Asnum.Tbl.t;
    mutable links : link list;
    mutable msgs : int;
  }

  let create () = { routers = Asnum.Tbl.create 32; links = []; msgs = 0 }

  let add net r =
    if Asnum.Tbl.mem net.routers r.asn then invalid_arg "Bgp_router.Network.add: duplicate AS";
    Asnum.Tbl.replace net.routers r.asn r

  let router net asn = Asnum.Tbl.find_opt net.routers asn
  let message_count net = net.msgs

  (* Move pending messages of [src] across the wire into [dst]. *)
  let transfer net src dst =
    let moved = ref false in
    List.iter
      (fun m ->
        moved := true;
        net.msgs <- net.msgs + 1;
        let wire = Msg.encode m in
        match Msg.decode wire 0 with
        | Ok (m', _) -> Session.receive dst m'
        | Error e -> failwith ("Bgp_router.Network: message corrupt on the wire: " ^ e))
      (Session.pending src);
    !moved

  let pump_link net l =
    let x = transfer net l.a.session l.b.session in
    let y = transfer net l.b.session l.a.session in
    x || y

  let connect net a_asn b_asn ~relation =
    match router net a_asn, router net b_asn with
    | Some ra, Some rb ->
      if List.exists (fun p -> Asnum.equal p.remote b_asn) ra.peers then
        invalid_arg "Bgp_router.Network.connect: duplicate link";
      let id n = Netaddr.Ipv4.of_int32_bits (Asnum.to_int n) in
      let sa =
        Session.create { Session.asn = a_asn; bgp_id = id a_asn; hold_time = 90 }
      in
      let sb =
        Session.create { Session.asn = b_asn; bgp_id = id b_asn; hold_time = 90 }
      in
      let pa =
        { remote = b_asn; session = sa; relation; advertised = Pfx.Map.empty;
          export_filter = (fun _ -> true) }
      in
      let pb =
        { remote = a_asn; session = sb; relation = Policy.flip relation;
          advertised = Pfx.Map.empty; export_filter = (fun _ -> true) }
      in
      ra.peers <- pa :: ra.peers;
      rb.peers <- pb :: rb.peers;
      Session.start sa;
      Session.start sb;
      let l = { a = pa; b = pb } in
      net.links <- l :: net.links;
      (* Complete the OPEN/KEEPALIVE handshake. *)
      let rec settle n =
        if n > 0 && pump_link net l then settle (n - 1)
      in
      settle 8
    | _ -> invalid_arg "Bgp_router.Network.connect: unknown router"

  let run net =
    let routers = Asnum.Tbl.fold (fun _ r acc -> r :: acc) net.routers [] in
    let rounds = ref 0 in
    let max_rounds = (4 * List.length routers) + 16 in
    let progress = ref true in
    while !progress do
      progress := false;
      incr rounds;
      if !rounds > max_rounds then failwith "Bgp_router.Network.run: did not converge";
      List.iter decide routers;
      List.iter
        (fun r -> List.iter (fun p -> if sync_exports r p then progress := true) r.peers)
        routers;
      List.iter (fun l -> if pump_link net l then progress := true) net.links
    done
end
