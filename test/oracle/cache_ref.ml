module Pdu = Rtr.Pdu
module Cache = Rtr.Cache_server
module Vset = Rpki.Vrp.Set

(* [Vset.elements] is ascending, so [rev_map] gives descending order. *)
let prefixes flags set = List.rev_map (fun vrp -> Pdu.Prefix { flags; vrp }) (Vset.elements set)

let response t ~since_state =
  let current = Cache.vrps t in
  (Pdu.Cache_response { session_id = Cache.session_id t }
   :: prefixes Pdu.Announce (Vset.diff current since_state))
  @ prefixes Pdu.Withdraw (Vset.diff since_state current)
  @ [ Cache.end_of_data t ]

let handle t query =
  match query with
  | Pdu.Reset_query -> response t ~since_state:Vset.empty
  | Pdu.Serial_query { session_id; serial } ->
    (match (if session_id <> Cache.session_id t then None else Cache.state_at t serial) with
     | None -> [ Pdu.Cache_reset ]
     | Some since_state -> response t ~since_state)
  | Pdu.Error_report _ -> []
  | other ->
    [ Pdu.Error_report
        { code = Pdu.Invalid_request;
          erroneous_pdu = Pdu.encode other;
          message = "cache expected Reset Query or Serial Query" } ]
