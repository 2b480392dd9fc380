type t = {
  cache : Cache_server.t;
  routers : Router_client.t array;
  mutable bytes : int;
}

let routers t = Array.to_list t.routers
let bytes_on_wire t = t.bytes

(* The perfect link never advances time: timers exist for the
   fault-injected transport (Netsim.Rtr_sim); here every exchange
   completes instantaneously at t=0. *)
let now = 0

(* Feed one wire segment to a router: the bytes are decoded on the
   router side of the "link", exactly as they would arrive off a
   socket. The segments themselves are the cache's shared buffers —
   nothing is re-encoded per router. *)
let deliver t router wire =
  t.bytes <- t.bytes + String.length wire;
  match Pdu.decode_all wire with
  | Error e -> failwith ("Rtr.Session: PDU failed to round-trip: " ^ e)
  | Ok pdus ->
    List.iter
      (fun pdu ->
        match Router_client.receive router ~now pdu with
        | Ok () -> ()
        | Error e -> failwith ("Rtr.Session: router rejected PDU: " ^ e))
      pdus

let pump t =
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun router ->
        match Router_client.pending router with
        | [] -> ()
        | queries ->
          progress := true;
          (* Queries are router-specific: encode the run once for this
             router and bounce it off the wire form. *)
          let qwire = Pdu.encode_all queries in
          t.bytes <- t.bytes + String.length qwire;
          (match Pdu.decode_all qwire with
           | Error e -> failwith ("Rtr.Session: query failed to round-trip: " ^ e)
           | Ok qs ->
             List.iter
               (fun q ->
                 List.iter (deliver t router) (Cache_server.handle_wire t.cache q))
               qs))
      t.routers
  done

let connect cache n =
  let routers = Array.init n (fun _ -> Router_client.create ()) in
  let t = { cache; routers; bytes = 0 } in
  Array.iter (fun r -> Router_client.connected r ~now) routers;
  pump t;
  t

let publish t vrps =
  match Cache_server.update t.cache vrps with
  | None -> ()
  | Some _notify ->
    (* One shared notify buffer for the whole fan-out. *)
    let wire = Cache_server.notify_wire t.cache in
    Array.iter (fun router -> deliver t router wire) t.routers;
    pump t
