type t = Rtr.Cache_server.t

(* Validate every repository, flatten with scan_roas, compress, and
   seed the RTR server with the result, so the session starts at
   serial 0 like a fresh cache. *)
let create repositories =
  let outcomes = List.map Rpki.Repository.validate repositories in
  let roas = List.concat_map (fun o -> o.Rpki.Repository.valid_roas) outcomes in
  Rtr.Cache_server.create (Compress.run (Rpki.Scan_roas.vrps_of_roas roas))

let server t = t
let vrps t = Rpki.Vrp.Set.elements (Rtr.Cache_server.vrps t)
