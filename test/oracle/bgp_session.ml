module Pfx = Netaddr.Pfx
module Route = Bgp.Route
module Msg = Bgp_msg
module Wire = Bgp_wire

type config = { asn : Rpki.Asnum.t; bgp_id : Netaddr.Ipv4.t; hold_time : int }
type state = Idle | Open_sent | Open_confirm | Established

let state_to_string = function
  | Idle -> "Idle"
  | Open_sent -> "OpenSent"
  | Open_confirm -> "OpenConfirm"
  | Established -> "Established"

type t = {
  config : config;
  mutable state : state;
  mutable peer : Msg.open_msg option;
  mutable hold : int option; (* negotiated *)
  mutable outbox : Msg.t list; (* reversed *)
  mutable clock : int;
  mutable last_recv : int;
  mutable last_sent : int;
  mutable adj_rib_in : Rpki.Asnum.t list Pfx.Map.t; (* prefix -> AS path *)
  mutable last_error : string option;
}

let create config =
  if config.hold_time <> 0 && config.hold_time < 3 then
    invalid_arg "Bgp_session.create: hold time must be 0 or >= 3";
  { config;
    state = Idle;
    peer = None;
    hold = None;
    outbox = [];
    clock = 0;
    last_recv = 0;
    last_sent = 0;
    adj_rib_in = Pfx.Map.empty;
    last_error = None }

let state t = t.state
let established t = t.state = Established
let peer t = t.peer
let negotiated_hold_time t = t.hold
let last_error t = t.last_error
let routes_in t = Pfx.Map.fold (fun p path acc -> Route.make_exn p path :: acc) t.adj_rib_in []

let send t m =
  t.outbox <- m :: t.outbox;
  t.last_sent <- t.clock

let pending t =
  let out = List.rev t.outbox in
  t.outbox <- [];
  out

let our_open t =
  Msg.Open
    { Msg.version = 4;
      asn = t.config.asn;
      hold_time = t.config.hold_time;
      bgp_id = t.config.bgp_id }

let start t =
  match t.state with
  | Idle ->
    send t (our_open t);
    t.state <- Open_sent;
    t.last_recv <- t.clock
  | Open_sent | Open_confirm | Established -> ()

let teardown t reason =
  t.state <- Idle;
  t.peer <- None;
  t.hold <- None;
  t.adj_rib_in <- Pfx.Map.empty;
  t.last_error <- Some reason

(* Send a NOTIFICATION and drop to Idle. *)
let abort t ~code ~subcode reason =
  send t (Msg.Notification { Msg.code; subcode; data = "" });
  teardown t reason

let fsm_error t what = abort t ~code:Msg.err_fsm ~subcode:0 ("unexpected " ^ what)

let accept_open t (o : Msg.open_msg) =
  if Rpki.Asnum.equal o.Msg.asn t.config.asn then
    abort t ~code:Msg.err_open_message ~subcode:2 "peer claims our own AS number"
  else begin
    t.peer <- Some o;
    let hold =
      if o.Msg.hold_time = 0 || t.config.hold_time = 0 then 0
      else min o.Msg.hold_time t.config.hold_time
    in
    t.hold <- Some hold;
    send t Msg.Keepalive;
    t.state <- Open_confirm;
    t.last_recv <- t.clock
  end

let apply_update t (u : Wire.update) =
  t.adj_rib_in <- List.fold_left (fun m p -> Pfx.Map.remove p m) t.adj_rib_in u.Wire.withdrawn;
  (* Loop prevention: ignore announcements whose path contains us. *)
  if not (List.exists (Rpki.Asnum.equal t.config.asn) u.Wire.as_path) then
    t.adj_rib_in <-
      List.fold_left (fun m p -> Pfx.Map.add p u.Wire.as_path m) t.adj_rib_in u.Wire.announced

let receive t m =
  t.last_recv <- t.clock;
  match t.state, m with
  | Idle, Msg.Open o ->
    (* Passive open: respond with our OPEN and a KEEPALIVE. *)
    send t (our_open t);
    accept_open t o
  | Open_sent, Msg.Open o -> accept_open t o
  | Open_confirm, Msg.Keepalive -> t.state <- Established
  | Established, Msg.Keepalive -> ()
  | Established, Msg.Update u -> apply_update t u
  | _, Msg.Notification n ->
    teardown t (Printf.sprintf "peer sent NOTIFICATION %d/%d" n.Msg.code n.Msg.subcode)
  | Idle, (Msg.Update _ | Msg.Keepalive) ->
    (* Stale traffic after teardown: ignore silently. *)
    ()
  | Open_sent, (Msg.Update _ | Msg.Keepalive) -> fsm_error t "message in OpenSent"
  | Open_confirm, (Msg.Open _ | Msg.Update _) -> fsm_error t "message in OpenConfirm"
  | Established, Msg.Open _ -> fsm_error t "OPEN in Established"

let tick t ~seconds =
  if seconds < 0 then invalid_arg "Bgp_session.tick: negative time";
  t.clock <- t.clock + seconds;
  match t.state with
  | Idle -> ()
  | Open_sent | Open_confirm | Established ->
    let hold = match t.hold with Some h -> h | None -> t.config.hold_time in
    if hold > 0 && t.clock - t.last_recv > hold then
      abort t ~code:Msg.err_hold_timer_expired ~subcode:0 "hold timer expired"
    else if t.state = Established && hold > 0 && t.clock - t.last_sent >= max 1 (hold / 3) then
      send t Msg.Keepalive

let announce t route =
  if t.state <> Established then Error "session not established"
  else begin
    send t (Msg.Update (Wire.of_route route));
    Ok ()
  end

let withdraw t prefix =
  if t.state <> Established then Error "session not established"
  else begin
    send t (Msg.Update { Wire.withdrawn = [ prefix ]; announced = []; as_path = [] });
    Ok ()
  end
