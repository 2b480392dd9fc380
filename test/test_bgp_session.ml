(* BGP message framing (OPEN/NOTIFICATION/KEEPALIVE) and the peering
   session state machine: establishment, keepalives, hold-timer
   expiry, FSM errors, route exchange with loop prevention. *)

module Msg = Oracle.Bgp_msg
module Session = Oracle.Bgp_session
module Route = Bgp.Route

(* Two sessions wired back-to-back through the real byte encoding.
   Every message crosses the link as bytes and is re-decoded on the
   other side, so these tests exercise [Msg]'s framing, not just the
   state machines. Pumping is synchronous; the shared logical clock
   drives both ends. *)
module Peering = struct
  type t = {
    left : Session.t;
    right : Session.t;
    mutable partitioned : bool;
    mutable bytes : int;
  }

  let left t = t.left
  let right t = t.right
  let bytes_on_wire t = t.bytes

  (* A message that fails to decode on the link is a framing bug. *)
  let transfer t source sink =
    let msgs = Session.pending source in
    if not t.partitioned then
      List.iter
        (fun m ->
          let wire = Msg.encode m in
          t.bytes <- t.bytes + String.length wire;
          match Msg.decode wire 0 with
          | Ok (m', off) when off = String.length wire -> Session.receive sink m'
          | Ok _ -> failwith "Peering: trailing bytes after message"
          | Error e -> failwith ("Peering: message failed to round-trip: " ^ e))
        msgs;
    msgs <> []

  (* Deliver all in-flight messages until quiescent. *)
  let pump t =
    let progress = ref true in
    while !progress do
      progress := false;
      if transfer t t.left t.right then progress := true;
      if transfer t t.right t.left then progress := true
    done

  (* Start both sessions actively and pump until Established. *)
  let connect left_cfg right_cfg =
    let t =
      { left = Session.create left_cfg; right = Session.create right_cfg; partitioned = false;
        bytes = 0 }
    in
    Session.start t.left;
    Session.start t.right;
    pump t;
    t

  (* Advance both clocks in one-second steps, pumping between steps, so
     keepalives arrive before hold timers fire. *)
  let elapse t ~seconds =
    for _ = 1 to seconds do
      Session.tick t.left ~seconds:1;
      Session.tick t.right ~seconds:1;
      pump t
    done

  (* Drop all in-flight traffic and stop delivering until [heal]; used
     to make hold timers expire. *)
  let partition t =
    t.partitioned <- true;
    ignore (Session.pending t.left);
    ignore (Session.pending t.right)

  let heal t = t.partitioned <- false
end

let p = Testutil.p4
let a = Testutil.a
let msg = Alcotest.testable Msg.pp Msg.equal

let open_msg ?(asn = 64512) ?(hold = 90) () =
  Msg.Open
    { Msg.version = 4;
      asn = a asn;
      hold_time = hold;
      bgp_id = Netaddr.Ipv4.of_string_exn "192.0.2.1" }

(* --- message encoding --- *)

let test_msg_roundtrips () =
  List.iter
    (fun m ->
      let wire = Msg.encode m in
      match Msg.decode wire 0 with
      | Ok (m', off) ->
        Alcotest.check msg "roundtrip" m m';
        Alcotest.(check int) "consumed" (String.length wire) off
      | Error e -> Alcotest.failf "decode: %s" e)
    [ open_msg ();
      open_msg ~asn:4_200_000_000 (); (* needs the 4-octet capability *)
      open_msg ~hold:0 ();
      Msg.Keepalive;
      Msg.Notification { Msg.code = 6; subcode = 2; data = "bye" };
      Msg.Notification { Msg.code = 4; subcode = 0; data = "" };
      Msg.Update
        { Oracle.Bgp_wire.withdrawn = [ p "10.0.0.0/8" ];
          announced = [ p "168.122.0.0/16" ];
          as_path = [ a 1; a 2 ] } ]

let test_msg_stream () =
  let ms = [ open_msg (); Msg.Keepalive; Msg.Keepalive ] in
  let wire = String.concat "" (List.map Msg.encode ms) in
  Alcotest.(check (list msg)) "stream" ms (Testutil.check_ok (Msg.decode_all wire))

let test_open_as_trans_fallback () =
  (* An OPEN whose 2-byte My-AS is AS_TRANS but which (illegally for a
     4-octet speaker, legal for an old one) lacks the capability:
     decode falls back to the 2-byte field. We build it by encoding a
     big-AS OPEN and stripping the optional parameters. *)
  let wire = Bytes.of_string (Msg.encode (open_msg ~asn:4_200_000_000 ())) in
  (* Truncate to header(19) + 10-byte fixed OPEN body with optlen 0. *)
  let body = Bytes.sub wire 0 29 in
  Bytes.set body 28 '\x00' (* opt param len = 0 *);
  Bytes.set body 17 (Char.chr 29) (* total length *);
  (match Msg.decode (Bytes.to_string body) 0 with
   | Ok (Msg.Open o, _) ->
     Alcotest.check Testutil.asn "falls back to AS_TRANS" (a 23456) o.Msg.asn
   | Ok (m, _) -> Alcotest.failf "decoded %a" Msg.pp m
   | Error e -> Alcotest.failf "decode failed: %s" e)

let test_msg_rejects () =
  List.iter
    (fun (name, make_bytes) ->
      match Msg.decode (make_bytes ()) 0 with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error _ -> ())
    [ ("empty", fun () -> "");
      ("bad marker", fun () -> String.make 19 '\x00');
      ("unknown type", fun () ->
        let b = Bytes.of_string (Msg.encode Msg.Keepalive) in
        Bytes.set b 18 '\x09';
        Bytes.to_string b);
      ("keepalive with body", fun () ->
        let b = Bytes.of_string (Msg.encode Msg.Keepalive ^ "x") in
        Bytes.set b 17 (Char.chr 20);
        Bytes.to_string b);
      ("hold time 2", fun () -> Msg.encode (open_msg ~hold:2 ()));
      ("version 5", fun () ->
        let b = Bytes.of_string (Msg.encode (open_msg ())) in
        Bytes.set b 19 '\x05';
        Bytes.to_string b) ]

let test_msg_mutation_total () =
  List.iter
    (fun m ->
      let wire = Bytes.of_string (Msg.encode m) in
      for i = 0 to Bytes.length wire - 1 do
        for v = 0 to 255 do
          let b = Bytes.copy wire in
          Bytes.set b i (Char.chr v);
          match Msg.decode (Bytes.to_string b) 0 with Ok _ | Error _ -> ()
        done
      done)
    [ open_msg (); Msg.Notification { Msg.code = 1; subcode = 1; data = "z" } ]

(* --- sessions --- *)

let cfg ?(hold = 90) asn id =
  { Session.asn = a asn; bgp_id = Netaddr.Ipv4.of_string_exn id; hold_time = hold }

let test_establishment () =
  let peering = Peering.connect (cfg 64512 "192.0.2.1") (cfg 64513 "192.0.2.2") in
  Alcotest.(check bool) "left established" true (Session.established (Peering.left peering));
  Alcotest.(check bool) "right established" true (Session.established (Peering.right peering));
  (match Session.peer (Peering.left peering) with
   | Some o -> Alcotest.check Testutil.asn "left sees right" (a 64513) o.Msg.asn
   | None -> Alcotest.fail "no peer info");
  Alcotest.(check (option int)) "negotiated hold" (Some 90)
    (Session.negotiated_hold_time (Peering.left peering));
  Alcotest.(check bool) "bytes flowed" true (Peering.bytes_on_wire peering > 0)

let test_hold_negotiation_min () =
  let peering = Peering.connect (cfg ~hold:30 64512 "192.0.2.1") (cfg ~hold:90 64513 "192.0.2.2") in
  Alcotest.(check (option int)) "min wins (left)" (Some 30)
    (Session.negotiated_hold_time (Peering.left peering));
  Alcotest.(check (option int)) "min wins (right)" (Some 30)
    (Session.negotiated_hold_time (Peering.right peering))

let test_same_as_rejected () =
  let peering = Peering.connect (cfg 64512 "192.0.2.1") (cfg 64512 "192.0.2.2") in
  Alcotest.(check bool) "no session" false
    (Session.established (Peering.left peering) || Session.established (Peering.right peering))

let test_route_exchange () =
  let peering = Peering.connect (cfg 64512 "192.0.2.1") (cfg 64513 "192.0.2.2") in
  let route = Route.make_exn (p "168.122.0.0/16") [ a 64512; a 111 ] in
  Testutil.check_ok (Session.announce (Peering.left peering) route);
  Peering.pump peering;
  (match Session.routes_in (Peering.right peering) with
   | [ r ] -> Alcotest.(check bool) "learned" true (Route.equal r route)
   | l -> Alcotest.failf "expected one route, got %d" (List.length l));
  (* Withdraw removes it. *)
  Testutil.check_ok (Session.withdraw (Peering.left peering) (p "168.122.0.0/16"));
  Peering.pump peering;
  Alcotest.(check int) "withdrawn" 0 (List.length (Session.routes_in (Peering.right peering)))

let test_loop_prevention_on_input () =
  let peering = Peering.connect (cfg 64512 "192.0.2.1") (cfg 64513 "192.0.2.2") in
  (* A path already containing the receiver's AS must be ignored. *)
  let looped = Route.make_exn (p "10.0.0.0/8") [ a 64512; a 64513; a 1 ] in
  Testutil.check_ok (Session.announce (Peering.left peering) looped);
  Peering.pump peering;
  Alcotest.(check int) "looped route dropped" 0
    (List.length (Session.routes_in (Peering.right peering)))

let test_keepalives_sustain_session () =
  let peering = Peering.connect (cfg ~hold:9 64512 "192.0.2.1") (cfg ~hold:9 64513 "192.0.2.2") in
  Peering.elapse peering ~seconds:60;
  Alcotest.(check bool) "still established" true
    (Session.established (Peering.left peering) && Session.established (Peering.right peering))

let test_hold_timer_expires_on_partition () =
  let peering = Peering.connect (cfg ~hold:9 64512 "192.0.2.1") (cfg ~hold:9 64513 "192.0.2.2") in
  Peering.partition peering;
  Peering.elapse peering ~seconds:20;
  let l = Peering.left peering in
  Alcotest.(check bool) "torn down" false (Session.established l);
  (match Session.last_error l with
   | Some reason -> Alcotest.(check string) "reason" "hold timer expired" reason
   | None -> Alcotest.fail "no error recorded");
  Alcotest.(check int) "routes cleared" 0 (List.length (Session.routes_in l));
  (* The session can be re-established after healing. *)
  Peering.heal peering;
  Session.start l;
  Session.start (Peering.right peering);
  Peering.pump peering;
  Alcotest.(check bool) "re-established" true
    (Session.established l && Session.established (Peering.right peering))

let test_update_before_established_is_fsm_error () =
  let s = Session.create (cfg 64512 "192.0.2.1") in
  Session.start s;
  ignore (Session.pending s);
  Session.receive s
    (Msg.Update { Oracle.Bgp_wire.withdrawn = []; announced = [ p "10.0.0.0/8" ]; as_path = [ a 1 ] });
  Alcotest.(check bool) "back to idle" true (Session.state s = Session.Idle);
  match Session.pending s with
  | [ Msg.Notification n ] -> Alcotest.(check int) "FSM error" Msg.err_fsm n.Msg.code
  | _ -> Alcotest.fail "expected a NOTIFICATION"

let test_announce_requires_established () =
  let s = Session.create (cfg 64512 "192.0.2.1") in
  match Session.announce s (Route.make_exn (p "10.0.0.0/8") [ a 1 ]) with
  | Ok () -> Alcotest.fail "announced while idle"
  | Error _ -> ()

let test_notification_tears_down () =
  let peering = Peering.connect (cfg 64512 "192.0.2.1") (cfg 64513 "192.0.2.2") in
  Session.receive (Peering.left peering)
    (Msg.Notification { Msg.code = Msg.err_cease; subcode = 0; data = "" });
  Alcotest.(check bool) "left idle" true (Session.state (Peering.left peering) = Session.Idle)

let prop_session_pair_always_converges =
  (* Whatever hold times in range, two fresh sessions establish and
     survive an extended quiet period with keepalives. *)
  QCheck2.Test.make ~name:"sessions establish for any hold-time pair" ~count:50
    QCheck2.Gen.(pair (int_range 3 60) (int_range 3 60))
    (fun (h1, h2) ->
      let peering = Peering.connect (cfg ~hold:h1 64512 "192.0.2.1") (cfg ~hold:h2 64513 "192.0.2.2") in
      Peering.elapse peering ~seconds:(3 * max h1 h2);
      Session.established (Peering.left peering) && Session.established (Peering.right peering))

let () =
  Alcotest.run "bgp.session"
    [ ( "messages",
        [ Alcotest.test_case "roundtrips" `Quick test_msg_roundtrips;
          Alcotest.test_case "stream" `Quick test_msg_stream;
          Alcotest.test_case "AS_TRANS fallback" `Quick test_open_as_trans_fallback;
          Alcotest.test_case "rejects malformed" `Quick test_msg_rejects;
          Alcotest.test_case "byte-mutation fuzz" `Slow test_msg_mutation_total ] );
      ( "fsm",
        [ Alcotest.test_case "establishment" `Quick test_establishment;
          Alcotest.test_case "hold negotiation" `Quick test_hold_negotiation_min;
          Alcotest.test_case "same AS rejected" `Quick test_same_as_rejected;
          Alcotest.test_case "route exchange" `Quick test_route_exchange;
          Alcotest.test_case "loop prevention" `Quick test_loop_prevention_on_input;
          Alcotest.test_case "keepalives sustain" `Quick test_keepalives_sustain_session;
          Alcotest.test_case "hold timer expiry" `Quick test_hold_timer_expires_on_partition;
          Alcotest.test_case "early update is FSM error" `Quick test_update_before_established_is_fsm_error;
          Alcotest.test_case "announce requires established" `Quick test_announce_requires_established;
          Alcotest.test_case "notification tears down" `Quick test_notification_tears_down ] );
      ( "properties", List.map QCheck_alcotest.to_alcotest [ prop_session_pair_always_converges ] ) ]
