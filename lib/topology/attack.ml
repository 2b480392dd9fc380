module Asnum = Rpki.Asnum
module Pfx = Netaddr.Pfx
module Route = Bgp.Route

type kind =
  | Prefix_hijack
  | Subprefix_hijack of Pfx.t
  | Forged_origin
  | Forged_origin_subprefix of Pfx.t

let kind_to_string = function
  | Prefix_hijack -> "prefix hijack"
  | Subprefix_hijack p -> Printf.sprintf "subprefix hijack (%s)" (Pfx.to_string p)
  | Forged_origin -> "forged-origin hijack"
  | Forged_origin_subprefix p ->
    Printf.sprintf "forged-origin subprefix hijack (%s)" (Pfx.to_string p)

type scenario = {
  graph : As_graph.t;
  victim : Asnum.t;
  attacker : Asnum.t;
  announced : Pfx.t list;
  vrps : Rpki.Vrp.t list;
  rov : Asnum.t -> bool;
  aspas : Rpki.Aspa.db option;
}

type result = {
  kind : kind;
  hijack_route : Route.t;
  hijack_validity : Rpki.Validation.state;
  to_attacker : int;
  to_victim : int;
  unreachable : int;
  measured : int;
}

let capture_fraction r =
  if r.measured = 0 then 0.0 else float_of_int r.to_attacker /. float_of_int r.measured

(* The prefix the attacker targets and the path it forges. *)
let hijack_route sc kind =
  let victim_prefix =
    (* The attack targets the victim's covering announcement; take the
       shortest announced prefix as "the" prefix, like the paper's
       168.122.0.0/16. *)
    match List.sort (fun a b -> Int.compare (Pfx.length a) (Pfx.length b)) sc.announced with
    | [] -> invalid_arg "Attack: victim announces nothing"
    | p :: _ -> p
  in
  match kind with
  | Prefix_hijack -> Route.make_exn victim_prefix [ sc.attacker ]
  | Subprefix_hijack sub -> Route.make_exn sub [ sc.attacker ]
  | Forged_origin -> Route.make_exn victim_prefix [ sc.attacker; sc.victim ]
  | Forged_origin_subprefix sub -> Route.make_exn sub [ sc.attacker; sc.victim ]

let aspa_received_from = function
  | Bgp.Policy.Customer -> Rpki.Aspa.From_customer
  | Bgp.Policy.Peer -> Rpki.Aspa.From_peer
  | Bgp.Policy.Provider -> Rpki.Aspa.From_provider

let propagate_one sc rov route_map prefix origins =
  let aspa_ok rel (r : Route.t) =
    match sc.aspas with
    | None -> true
    | Some db ->
      Rpki.Aspa.verify db ~received_from:(aspa_received_from rel) ~as_path:r.Route.as_path
      <> Rpki.Aspa.Path_invalid
  in
  let import_filter asn rel r = (not (sc.rov asn)) || (Bgp.Rov.accepts rov r && aspa_ok rel r) in
  let outcome = Propagate.run sc.graph ~originations:origins ~import_filter () in
  route_map := (prefix, outcome) :: !route_map

let measure sc ~route_maps ~target ~kind ~hijack ~validity =
  (* Forwarding for [target] at each AS: longest matching prefix among
     those the AS holds a route for. *)
  let ases = As_graph.as_list sc.graph in
  let to_attacker = ref 0 and to_victim = ref 0 and unreachable = ref 0 in
  let covering = List.filter (fun (p, _) -> Pfx.subset target p) route_maps in
  let sorted =
    List.sort (fun (a, _) (b, _) -> Int.compare (Pfx.length b) (Pfx.length a)) covering
  in
  List.iter
    (fun u ->
      if not (Asnum.equal u sc.victim || Asnum.equal u sc.attacker) then begin
        let rec decide = function
          | [] -> incr unreachable
          | (_, outcome) :: rest ->
            (match Asnum.Map.find_opt u outcome with
             | None -> decide rest
             | Some (_, route) ->
               if Route.loops_through route sc.attacker then incr to_attacker
               else incr to_victim)
        in
        decide sorted
      end)
    ases;
  { kind;
    hijack_route = hijack;
    hijack_validity = validity;
    to_attacker = !to_attacker;
    to_victim = !to_victim;
    unreachable = !unreachable;
    measured = List.length ases - 2 }

let run sc kind ~target =
  let rov = Bgp.Rov.create (Rpki.Validation.create sc.vrps) in
  let hijack = hijack_route sc kind in
  let validity = Bgp.Rov.state_of rov hijack in
  let route_map = ref [] in
  (* Victim's legitimate announcements, one propagation per prefix; the
     hijacked prefix gets competing originations when prefixes collide. *)
  List.iter
    (fun p ->
      let origins = [ (sc.victim, Route.originate p sc.victim) ] in
      let origins =
        if Pfx.equal p hijack.Route.prefix then (sc.attacker, hijack) :: origins else origins
      in
      propagate_one sc rov route_map p origins)
    sc.announced;
  if not (List.exists (fun p -> Pfx.equal p hijack.Route.prefix) sc.announced) then
    propagate_one sc rov route_map hijack.Route.prefix [ (sc.attacker, hijack) ];
  measure sc ~route_maps:!route_map ~target ~kind ~hijack ~validity

let baseline sc ~target =
  let rov = Bgp.Rov.create (Rpki.Validation.create sc.vrps) in
  let route_map = ref [] in
  List.iter
    (fun p -> propagate_one sc rov route_map p [ (sc.victim, Route.originate p sc.victim) ])
    sc.announced;
  let dummy = Route.originate (List.hd sc.announced) sc.victim in
  measure sc ~route_maps:!route_map ~target ~kind:Prefix_hijack ~hijack:dummy
    ~validity:Rpki.Validation.Not_found
  [@@lint.test_only "witness: the no-attack run the attack tests compare against"]
