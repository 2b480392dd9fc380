(* RFC 1982 serial number arithmetic and the wraparound behaviour of
   the cache/router pair: a serial rolling over 0xFFFFFFFF -> 0 must
   keep producing incremental deltas, never a Cache Reset loop. *)

(* RFC 1982 order and distance as the tests state them, beside the
   library's [compare]. *)
module Serial = struct
  include Rtr.Serial

  let lt a b = compare a b < 0
  let distance ~from ~to_ = Int32.to_int (Int32.sub to_ from) land 0xffffffff
end

module Pdu = Rtr.Pdu
module Cache = Rtr.Cache_server
module Router = Rtr.Router_client
module Vrp = Rpki.Vrp
module Vset = Rpki.Vrp.Set

let p = Testutil.p4
let a = Testutil.a
let pdu = Alcotest.testable Pdu.pp Pdu.equal

(* The production serve path's response, decoded back to PDU values. *)
let serve cache q = Testutil.check_ok (Pdu.decode_all (String.concat "" (Cache.handle_wire cache q)))

let test_ordering () =
  let check name exp a b = Alcotest.(check int) name exp (Serial.compare a b) in
  check "equal" 0 42l 42l;
  check "simple lt" (-1) 1l 2l;
  check "simple gt" 1 2l 1l;
  (* The interesting cases: comparisons across the wrap. *)
  check "max < 0 across wrap" (-1) 0xFFFFFFFFl 0l;
  check "0 > max across wrap" 1 0l 0xFFFFFFFFl;
  check "near-wrap window" (-1) 0xFFFFFFF0l 5l;
  Alcotest.(check bool) "lt across wrap" true (Serial.lt 0xFFFFFFFEl 3l);
  Alcotest.(check bool) "gt across wrap" true (Serial.gt 3l 0xFFFFFFFEl);
  Alcotest.(check bool) "leq on equal" true (Serial.leq 7l 7l);
  (* RFC 1982 §3.2: exactly half the circle apart is undefined; we
     deterministically order it one way, and antisymmetry must hold
     everywhere else. *)
  Alcotest.(check bool) "half circle is ordered deterministically" true
    (Serial.compare 0l 0x80000000l <> 0)

let test_succ_and_add () =
  Alcotest.(check int32) "succ wraps" 0l (Serial.succ 0xFFFFFFFFl);
  Alcotest.(check int32) "succ normal" 43l (Serial.succ 42l);
  Alcotest.(check int32) "add wraps" 4l (Serial.add 0xFFFFFFFEl 6);
  Alcotest.(check bool) "s < succ s at the wrap" true (Serial.lt 0xFFFFFFFFl (Serial.succ 0xFFFFFFFFl))

let test_distance () =
  Alcotest.(check int) "plain" 5 (Serial.distance ~from:10l ~to_:15l);
  Alcotest.(check int) "zero" 0 (Serial.distance ~from:9l ~to_:9l);
  Alcotest.(check int) "across wrap" 21 (Serial.distance ~from:0xFFFFFFF0l ~to_:5l)

let prop_strict_order_in_window =
  (* For any base serial anywhere on the circle and any step within
     the RFC 1982 window, [s < s + step] — including across the wrap. *)
  QCheck2.Test.make ~name:"s < s + step everywhere on the circle" ~count:1000
    QCheck2.Gen.(pair ui64 (int_range 1 0x7FFFFFFE))
    (fun (base, step) ->
      let s = Int64.to_int32 base in
      let s' = Serial.add s step in
      Serial.lt s s' && Serial.gt s' s
      && Serial.distance ~from:s ~to_:s' = step)

let prop_succ_monotone_around_wrap =
  (* Walk a window straddling the wrap; each successor is strictly
     greater and at distance 1. *)
  QCheck2.Test.make ~name:"succ is strictly monotone across the wrap" ~count:100
    QCheck2.Gen.(int_range 0 200)
    (fun off ->
      let s = Serial.add 0xFFFFFF9Cl off in
      Serial.lt s (Serial.succ s) && Serial.distance ~from:s ~to_:(Serial.succ s) = 1)

(* --- the regression the helper exists for ------------------------- *)

let vrps_at i = [ Vrp.exact (p (Printf.sprintf "10.%d.0.0/16" (i mod 200))) (a (1 + i)) ]

let test_cache_serves_deltas_across_wrap () =
  (* Start two steps before the wrap and publish six updates; every
     retained serial — on both sides of 0 — still gets an incremental
     delta, and only evicted ones get Cache Reset. *)
  let cache = Cache.create ~history_limit:16 ~initial_serial:0xFFFFFFFEl (vrps_at 0) in
  for i = 1 to 6 do
    ignore (Cache.update cache (vrps_at i))
  done;
  Alcotest.(check int32) "serial wrapped into small positives" 4l (Cache.serial cache);
  List.iter
    (fun serial ->
      match serve cache (Pdu.Serial_query { session_id = Cache.session_id cache; serial }) with
      | Pdu.Cache_response _ :: rest ->
        (* The delta must land exactly on the current set when applied
           to that serial's historical state. *)
        Alcotest.(check bool)
          (Printf.sprintf "delta from %ld ends in End_of_data" serial)
          true
          (match List.rev rest with Pdu.End_of_data _ :: _ -> true | _ -> false)
      | [ Pdu.Cache_reset ] -> Alcotest.failf "serial %ld got Cache Reset, not a delta" serial
      | _ -> Alcotest.failf "serial %ld: unexpected response" serial)
    [ 0xFFFFFFFEl; 0xFFFFFFFFl; 0l; 1l; 2l; 3l ]

let test_current_serial_empty_delta_across_wrap () =
  let cache = Cache.create ~initial_serial:0xFFFFFFFFl (vrps_at 0) in
  ignore (Cache.update cache (vrps_at 1));
  Alcotest.(check int32) "wrapped to 0" 0l (Cache.serial cache);
  match serve cache (Pdu.Serial_query { session_id = Cache.session_id cache; serial = 0l }) with
  | [ Pdu.Cache_response _; Pdu.End_of_data { serial; _ } ] ->
    Alcotest.(check int32) "empty delta at current serial" 0l serial
  | _ -> Alcotest.fail "expected an empty delta at the current serial"

let test_router_increments_across_wrap () =
  (* A router synced at 0xFFFFFFFF receiving Serial Notify with serial
     0 must send an incremental Serial Query — with signed comparison
     it would think 0 < its serial and ignore the notify (or worse,
     reset). *)
  let cache = Cache.create ~initial_serial:0xFFFFFFFFl (vrps_at 0) in
  let session = Rtr.Session.connect cache 1 in
  let router = List.hd (Rtr.Session.routers session) in
  Alcotest.(check (option int32)) "synced at max serial" (Some 0xFFFFFFFFl) (Router.serial router);
  ignore (Cache.update cache (vrps_at 1));
  (match
     Router.receive router ~now:0
       (Pdu.Serial_notify { session_id = Cache.session_id cache; serial = 0l })
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Router.pending router with
   | [ (Pdu.Serial_query { serial; _ } as q) ] ->
     Alcotest.(check int32) "incremental query from old serial" 0xFFFFFFFFl serial;
     (* Complete the exchange by hand: cache answers, router applies. *)
     List.iter
       (fun resp ->
         match Router.receive router ~now:0 resp with
         | Ok () -> ()
         | Error e -> Alcotest.fail e)
       (serve cache q)
   | [ q ] -> Alcotest.failf "expected Serial Query, got %s" (Format.asprintf "%a" Pdu.pp q)
   | l -> Alcotest.failf "expected one query, got %d PDUs" (List.length l));
  Alcotest.(check (option int32)) "router followed across the wrap" (Some 0l) (Router.serial router);
  Alcotest.(check bool) "state matches cache" true
    (Vset.equal (Router.vrps router) (Cache.vrps cache))

let test_stale_notify_ignored_across_wrap () =
  (* After wrapping to serial 0, a duplicate notify for the PREVIOUS
     serial (0xFFFFFFFF) must be recognised as not-newer and ignored —
     unsigned compare would call it newer and trigger a useless sync. *)
  let cache = Cache.create ~initial_serial:0xFFFFFFFFl (vrps_at 0) in
  let session = Rtr.Session.connect cache 1 in
  let router = List.hd (Rtr.Session.routers session) in
  Rtr.Session.publish session (vrps_at 1);
  Alcotest.(check (option int32)) "router at serial 0" (Some 0l) (Router.serial router);
  (match
     Router.receive router ~now:0
       (Pdu.Serial_notify { session_id = Cache.session_id cache; serial = 0xFFFFFFFFl })
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check (list pdu)) "stale notify queues nothing" [] (Router.pending router)

let test_no_reset_loop_over_long_wrap_run () =
  (* Drive 40 published updates straight through the wrap with a
     connected router: every one must arrive incrementally — zero full
     resyncs, zero violations. *)
  let cache = Cache.create ~history_limit:8 ~initial_serial:0xFFFFFFF0l (vrps_at 0) in
  let session = Rtr.Session.connect cache 2 in
  for i = 1 to 40 do
    Rtr.Session.publish session (vrps_at i)
  done;
  Alcotest.(check int32) "ended past the wrap" 0x18l (Cache.serial cache);
  List.iter
    (fun r ->
      let s = Router.stats r in
      Alcotest.(check int) "no full resyncs" 0 s.Router.full_resyncs;
      Alcotest.(check int) "no violations" 0 s.Router.violations;
      Alcotest.(check (option int32)) "tracked the cache" (Some (Cache.serial cache)) (Router.serial r);
      Alcotest.(check bool) "state equal" true (Vset.equal (Router.vrps r) (Cache.vrps cache)))
    (Rtr.Session.routers session)

let test_state_at_boundaries () =
  (* The eviction edge, exactly: with [history_limit] deltas retained,
     [oldest_serial] is reconstructable and the serial one before it is
     not — checked on both sides of the 0xFFFFFFFF -> 0 wrap. *)
  let cache = Cache.create ~history_limit:4 ~initial_serial:0xFFFFFFFEl (vrps_at 0) in
  for i = 1 to 6 do
    ignore (Cache.update cache (vrps_at i))
  done;
  (* Serials ran 0xFFFFFFFE..4; the window holds the last 4 deltas, so
     the oldest reconstructable state is serial 0. *)
  Alcotest.(check int32) "current serial" 4l (Cache.serial cache);
  Alcotest.(check int32) "tracked oldest serial" 0l (Cache.oldest_serial cache);
  (match Cache.state_at cache 0l with
   | Some state ->
     Alcotest.(check bool) "state at the eviction edge is exact" true
       (Vset.equal state (Vset.of_list (vrps_at 2)))
   | None -> Alcotest.fail "oldest retained serial must be reconstructable");
  Alcotest.(check bool) "one past the edge (pre-wrap serial) is evicted" true
    (Cache.state_at cache 0xFFFFFFFFl = None);
  Alcotest.(check bool) "far future serial is unknown" true
    (Cache.state_at cache 5l = None);
  (* A full window straddling the wrap: nothing evicted yet, so the
     initial serial itself is still the oldest and still answers. *)
  let cache = Cache.create ~history_limit:8 ~initial_serial:0xFFFFFFFCl (vrps_at 0) in
  for i = 1 to 8 do
    ignore (Cache.update cache (vrps_at i))
  done;
  Alcotest.(check int32) "wrapped current serial" 4l (Cache.serial cache);
  Alcotest.(check int32) "oldest is the initial serial" 0xFFFFFFFCl (Cache.oldest_serial cache);
  (match Cache.state_at cache 0xFFFFFFFCl with
   | Some state ->
     Alcotest.(check bool) "initial state recovered across the wrap" true
       (Vset.equal state (Vset.of_list (vrps_at 0)))
   | None -> Alcotest.fail "full window must reach back to the initial serial");
  Alcotest.(check bool) "one before the initial serial is unknown" true
    (Cache.state_at cache 0xFFFFFFFBl = None);
  (* Every retained serial in between reconstructs exactly. *)
  for i = 0 to 8 do
    match Cache.state_at cache (Serial.add 0xFFFFFFFCl i) with
    | Some state ->
      Alcotest.(check bool)
        (Printf.sprintf "state %d across the wrap is exact" i)
        true
        (Vset.equal state (Vset.of_list (vrps_at i)))
    | None -> Alcotest.failf "retained serial %d not reconstructable" i
  done

let () =
  Alcotest.run "serial"
    [ ( "rfc1982",
        [ Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "succ and add" `Quick test_succ_and_add;
          Alcotest.test_case "distance" `Quick test_distance ] );
      ( "wraparound",
        [ Alcotest.test_case "cache serves deltas across wrap" `Quick
            test_cache_serves_deltas_across_wrap;
          Alcotest.test_case "empty delta at current serial" `Quick
            test_current_serial_empty_delta_across_wrap;
          Alcotest.test_case "router increments across wrap" `Quick
            test_router_increments_across_wrap;
          Alcotest.test_case "stale notify ignored" `Quick test_stale_notify_ignored_across_wrap;
          Alcotest.test_case "40 updates, no reset loop" `Quick
            test_no_reset_loop_over_long_wrap_run;
          Alcotest.test_case "state_at boundaries" `Quick test_state_at_boundaries ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_strict_order_in_window; prop_succ_monotone_around_wrap ] ) ]
