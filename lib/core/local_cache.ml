type stats = {
  valid_roas : int;
  rejections : Rpki.Repository.rejection list;
  vrps_scanned : int;
  vrps_served : int;
  serial : int32;
  changed : bool;
}

type t = {
  repositories : Rpki.Repository.t list;
  server : Rtr.Cache_server.t;
  mutable last : stats;
}

let pipeline t =
  let outcomes = List.map Rpki.Repository.validate t.repositories in
  let roas = List.concat_map (fun o -> o.Rpki.Repository.valid_roas) outcomes in
  let rejections = List.concat_map (fun o -> o.Rpki.Repository.rejections) outcomes in
  let scanned = Rpki.Scan_roas.vrps_of_roas roas in
  let served = Compress.run scanned in
  (List.length roas, rejections, scanned, served)

let refresh t =
  let valid_roas, rejections, scanned, served = pipeline t in
  let changed = Rtr.Cache_server.update t.server served <> None in
  let stats =
    { valid_roas;
      rejections;
      vrps_scanned = List.length scanned;
      vrps_served = List.length served;
      serial = Rtr.Cache_server.serial t.server;
      changed }
  in
  t.last <- stats;
  stats

let create repositories =
  (* Seed the RTR server with the first pipeline result directly, so
     the session starts at serial 0 like a fresh cache. *)
  let t0 =
    { repositories;
      server = Rtr.Cache_server.create [];
      last =
        { valid_roas = 0;
          rejections = [];
          vrps_scanned = 0;
          vrps_served = 0;
          serial = 0l;
          changed = false } }
  in
  let valid_roas, rejections, scanned, served = pipeline t0 in
  let t = { t0 with server = Rtr.Cache_server.create served } in
  t.last <-
    { valid_roas;
      rejections;
      vrps_scanned = List.length scanned;
      vrps_served = List.length served;
      serial = 0l;
      changed = false };
  t

let last_stats t = t.last
let server t = t.server
let vrps t = Rpki.Vrp.Set.elements (Rtr.Cache_server.vrps t.server)
