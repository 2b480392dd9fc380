type relation = Customer | Peer | Provider

let flip = function Customer -> Provider | Peer -> Peer | Provider -> Customer

type learned_from = Self | From of relation

let local_pref = function
  | Self -> 200
  | From Customer -> 100
  | From Peer -> 50
  | From Provider -> 10

let exports_to lf r =
  match lf with
  | Self | From Customer -> true
  | From Peer | From Provider -> r = Customer

(* The neighbor the route was learned from: the selecting AS sits at
   the head of its own selected path, so the next hop is the second
   element. Locally originated routes have no next hop. *)
let next_hop_asn (r : Route.t) =
  match r.Route.as_path with
  | _ :: nh :: _ -> nh
  | [ _ ] | [] -> Rpki.Asnum.zero

let better (lf_a, route_a) (lf_b, route_b) =
  let c = Int.compare (local_pref lf_b) (local_pref lf_a) in
  if c <> 0 then c
  else
    let c = Int.compare (Route.path_length route_a) (Route.path_length route_b) in
    if c <> 0 then c
    else
      let c = Rpki.Asnum.compare (next_hop_asn route_a) (next_hop_asn route_b) in
      if c <> 0 then c
      else List.compare Rpki.Asnum.compare route_a.Route.as_path route_b.Route.as_path
