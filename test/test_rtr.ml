(* RFC 8210: wire format round-trips and the cache/router state
   machines, including incremental sync and reset recovery. *)

module Pdu = Rtr.Pdu
module Serial = Rtr.Serial
module Cache = Rtr.Cache_server
module Cache_ref = Oracle.Cache_ref
module Router = Rtr.Router_client
module Vrp = Rpki.Vrp
module Vset = Rpki.Vrp.Set

let p = Testutil.p4
let a = Testutil.a
let pdu = Alcotest.testable Pdu.pp Pdu.equal

(* The production serve path's response, decoded back to PDU values. *)
let serve cache q = Testutil.check_ok (Pdu.decode_all (String.concat "" (Cache.handle_wire cache q)))

let sample_pdus =
  [ Pdu.Serial_notify { session_id = 0x1234; serial = 42l };
    Pdu.Serial_query { session_id = 0xffff; serial = 0l };
    Pdu.Reset_query;
    Pdu.Cache_response { session_id = 7 };
    Pdu.Prefix
      { flags = Pdu.Announce; vrp = Vrp.make_exn (p "168.122.0.0/16") ~max_len:24 (a 111) };
    Pdu.Prefix { flags = Pdu.Withdraw; vrp = Vrp.exact (p "10.0.0.0/8") (a 4200000000) };
    Pdu.Prefix
      { flags = Pdu.Announce; vrp = Vrp.make_exn (p "2001:db8::/32") ~max_len:48 (a 31283) };
    Pdu.End_of_data
      { session_id = 9;
        serial = Int32.max_int;
        refresh_interval = 3600l;
        retry_interval = 600l;
        expire_interval = 7200l };
    Pdu.Cache_reset;
    Pdu.Error_report { code = Pdu.Corrupt_data; erroneous_pdu = "\x01\x02"; message = "bad" };
    Pdu.Error_report { code = Pdu.No_data_available; erroneous_pdu = ""; message = "" } ]

let test_roundtrip_all () =
  List.iter
    (fun x ->
      let wire = Pdu.encode x in
      match Pdu.decode wire 0 with
      | Ok (y, off) ->
        Alcotest.check pdu "roundtrip" x y;
        Alcotest.(check int) "consumed all" (String.length wire) off
      | Error e -> Alcotest.failf "decode failed: %s (%a)" e Pdu.pp x)
    sample_pdus

let test_stream_decode () =
  let wire = String.concat "" (List.map Pdu.encode sample_pdus) in
  let decoded = Testutil.check_ok (Pdu.decode_all wire) in
  Alcotest.(check (list pdu)) "stream" sample_pdus decoded

let test_wire_layout () =
  (* Pin the exact bytes of an IPv4 Prefix PDU so interop with real
     implementations is checkable. *)
  let vrp = Vrp.make_exn (p "168.122.0.0/16") ~max_len:24 (a 111) in
  let wire = Pdu.encode (Pdu.Prefix { flags = Pdu.Announce; vrp }) in
  Alcotest.(check string)
    "ipv4 prefix pdu" "0104000000000014011018 00a87a0000 0000006f"
    (String.concat " "
       [ Hashcrypto.Sha256.to_hex (String.sub wire 0 11);
         Hashcrypto.Sha256.to_hex (String.sub wire 11 5);
         Hashcrypto.Sha256.to_hex (String.sub wire 16 4) ])

let test_decode_rejects () =
  List.iter
    (fun (name, hexstr) ->
      let bytes = Testutil.check_ok (Testutil.of_hex hexstr) in
      match Pdu.decode bytes 0 with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error _ -> ())
    [ ("short header", "010200");
      ("wrong version", "0002000000000008");
      ("length below 8", "0102000000000004");
      ("body short", "010000000000000c0000");
      ("unknown type", "010c000000000008");
      ("reset query bad length", "0102000000000009ff");
      ("prefix host bits", "0104000000000014 01101800a87a0100 0000006f" |> String.split_on_char ' ' |> String.concat "");
      ("nonzero reserved byte", "0104000000000014 0110180aa87a0000 0000006f" |> String.split_on_char ' ' |> String.concat "");
      ("prefix maxlen < len", "0104000000000014 011810000a0a0a00 0000006f" |> String.split_on_char ' ' |> String.concat "");
      ("prefix len > 32", "0104000000000014 01212200 0a0a0a00 0000006f" |> String.split_on_char ' ' |> String.concat "");
      ("flag bits", "0104000000000014 0310180a000000 0000006f" |> String.split_on_char ' ' |> String.concat "");
      ("error report overrun", "010a0000000000100000ffff") ]

let test_decode_total_fuzz () =
  (* Mutate valid PDUs byte-by-byte; the decoder must never raise. *)
  List.iter
    (fun x ->
      let wire = Bytes.of_string (Pdu.encode x) in
      for i = 0 to Bytes.length wire - 1 do
        for v = 0 to 255 do
          let b = Bytes.copy wire in
          Bytes.set b i (Char.chr v);
          match Pdu.decode (Bytes.to_string b) 0 with
          | Ok _ | Error _ -> ()
        done
      done)
    sample_pdus


let prop_cache_answers_every_retained_serial =
  (* After N random updates with a bounded history, a Serial Query for
     any serial is answered either with a correct delta (reconstructing
     the router's state exactly) or a Cache Reset — never junk. *)
  let open QCheck2 in
  Test.make ~name:"cache answers any serial with a correct delta or reset" ~count:50
    Gen.(pair (int_range 1 12) (int_range 0 1000))
    (fun (updates, salt) ->
      let rng = Rng.create salt in
      let cache = Cache.create ~history_limit:4 [] in
      (* Track every historical state for ground truth. *)
      let states = ref [ (0l, Vset.empty) ] in
      for _ = 1 to updates do
        let vrps =
          List.init (Rng.int rng 6) (fun _ ->
              Vrp.exact (p (Printf.sprintf "10.%d.%d.0/24" (Rng.int rng 4) (Rng.int rng 4))) (a 1))
        in
        (match Cache.update cache vrps with
         | Some _ | None -> ());
        states := (Cache.serial cache, Cache.vrps cache) :: !states
      done;
      List.for_all
        (fun (serial, state) ->
          match serve cache (Pdu.Serial_query { session_id = Cache.session_id cache; serial }) with
          | [ Pdu.Cache_reset ] -> true
          | Pdu.Cache_response _ :: rest ->
            (* Apply the delta to the historical state; must land on
               the current state. *)
            let final =
              List.fold_left
                (fun acc x ->
                  match x with
                  | Pdu.Prefix { flags = Pdu.Announce; vrp } -> Vset.add vrp acc
                  | Pdu.Prefix { flags = Pdu.Withdraw; vrp } -> Vset.remove vrp acc
                  | _ -> acc)
                state rest
            in
            Vset.equal final (Cache.vrps cache)
          | _ -> false)
        !states)

(* --- stream framing --- *)

let test_framer_byte_by_byte () =
  let wire = String.concat "" (List.map Pdu.encode sample_pdus) in
  let f = Rtr.Framer.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      match Rtr.Framer.feed f (String.make 1 c) with
      | Ok pdus -> got := !got @ pdus
      | Error e -> Alcotest.failf "framer failed: %s" e)
    wire;
  Alcotest.(check (list pdu)) "all PDUs, in order" sample_pdus !got;
  Alcotest.(check int) "nothing pending" 0 (Rtr.Framer.pending_bytes f)

let test_framer_random_chunks () =
  let wire = String.concat "" (List.map Pdu.encode sample_pdus) in
  let rng = Rng.create 99 in
  for _trial = 1 to 50 do
    let f = Rtr.Framer.create () in
    let got = ref [] in
    let off = ref 0 in
    while !off < String.length wire do
      let len = min (1 + Rng.int rng 40) (String.length wire - !off) in
      (match Rtr.Framer.feed f (String.sub wire !off len) with
       | Ok pdus -> got := !got @ pdus
       | Error e -> Alcotest.failf "framer failed: %s" e);
      off := !off + len
    done;
    Alcotest.(check (list pdu)) "all PDUs" sample_pdus !got
  done

let test_framer_empty_chunks () =
  let f = Rtr.Framer.create () in
  Alcotest.(check (list pdu)) "empty feed" [] (Testutil.check_ok (Rtr.Framer.feed f ""));
  Alcotest.(check (list pdu)) "partial header" []
    (Testutil.check_ok (Rtr.Framer.feed f "\x01\x02"));
  Alcotest.(check int) "two pending" 2 (Rtr.Framer.pending_bytes f)

let test_framer_terminal_error () =
  let f = Rtr.Framer.create () in
  (* Version 9 is a framing error... and terminal. *)
  (match Rtr.Framer.feed f "\x09\x02\x00\x00\x00\x00\x00\x08" with
   | Ok _ -> Alcotest.fail "bad version accepted"
   | Error _ -> ());
  Alcotest.(check bool) "failed recorded" true (Rtr.Framer.failed f <> None);
  match Rtr.Framer.feed f (Pdu.encode Pdu.Reset_query) with
  | Ok _ -> Alcotest.fail "accepted input after terminal error"
  | Error _ -> ()

let test_framer_oversized_pdu () =
  let f = Rtr.Framer.create () in
  (* A length field of 2 MiB must be rejected before buffering it. *)
  let header = "\x01\x0a\x00\x00\x00\x20\x00\x00" in
  match Rtr.Framer.feed f header with
  | Ok _ -> Alcotest.fail "oversized PDU accepted"
  | Error _ -> ()

(* --- cache/router state machines --- *)

let vrps1 =
  [ Vrp.exact (p "168.122.0.0/16") (a 111);
    Vrp.exact (p "168.122.225.0/24") (a 111);
    Vrp.make_exn (p "10.0.0.0/8") ~max_len:16 (a 7) ]

let vrps2 =
  [ Vrp.exact (p "168.122.0.0/16") (a 111);
    Vrp.exact (p "192.0.2.0/24") (a 9) ]

let vset = Alcotest.testable (Fmt.Dump.iter Vset.iter (Fmt.any "vrps") Vrp.pp) Vset.equal

let test_initial_sync () =
  let cache = Cache.create vrps1 in
  let session = Rtr.Session.connect cache 3 in
  List.iter
    (fun r ->
      Alcotest.(check bool) "synced" true (Router.synced r);
      Alcotest.check vset "router state" (Vset.of_list vrps1) (Router.vrps r);
      Alcotest.(check (option int32)) "serial 0" (Some 0l) (Router.serial r))
    (Rtr.Session.routers session);
  Alcotest.(check bool) "bytes moved" true (Rtr.Session.bytes_on_wire session > 0)

let test_incremental_update () =
  let cache = Cache.create vrps1 in
  let session = Rtr.Session.connect cache 2 in
  Rtr.Session.publish session vrps2;
  List.iter
    (fun r ->
      Alcotest.check vset "updated" (Vset.of_list vrps2) (Router.vrps r);
      Alcotest.(check (option int32)) "serial 1" (Some 1l) (Router.serial r))
    (Rtr.Session.routers session)

let test_delta_is_minimal () =
  (* The serial-query response carries exactly the set difference, not
     the whole table. vrps1 -> vrps2 withdraws two records and
     announces one. *)
  let cache = Cache.create vrps1 in
  ignore (Cache.update cache vrps2);
  let response =
    serve cache (Pdu.Serial_query { session_id = Cache.session_id cache; serial = 0l })
  in
  let announces, withdraws =
    List.fold_left
      (fun (an, wd) x ->
        match x with
        | Pdu.Prefix { flags = Pdu.Announce; vrp } -> (vrp :: an, wd)
        | Pdu.Prefix { flags = Pdu.Withdraw; vrp } -> (an, vrp :: wd)
        | _ -> (an, wd))
      ([], []) response
  in
  Alcotest.check vset "announced diff" (Vset.diff (Vset.of_list vrps2) (Vset.of_list vrps1))
    (Vset.of_list announces);
  Alcotest.check vset "withdrawn diff" (Vset.diff (Vset.of_list vrps1) (Vset.of_list vrps2))
    (Vset.of_list withdraws)

let test_no_change_no_serial () =
  let cache = Cache.create vrps1 in
  let session = Rtr.Session.connect cache 1 in
  Rtr.Session.publish session vrps1;
  Alcotest.(check int32) "serial unchanged" 0l (Cache.serial cache)

let test_many_updates_converge () =
  let cache = Cache.create [] in
  let session = Rtr.Session.connect cache 1 in
  let router = List.hd (Rtr.Session.routers session) in
  for i = 1 to 30 do
    let vrps = List.init i (fun j -> Vrp.exact (p (Printf.sprintf "10.%d.0.0/16" j)) (a j)) in
    Rtr.Session.publish session vrps;
    Alcotest.check vset
      (Printf.sprintf "state after update %d" i)
      (Vset.of_list vrps) (Router.vrps router)
  done;
  Alcotest.(check int32) "serial counts updates" 30l (Cache.serial cache)

let test_cache_reset_on_old_serial () =
  let cache = Cache.create ~history_limit:2 vrps1 in
  (* Burn the history window. *)
  ignore (Cache.update cache vrps2);
  ignore (Cache.update cache vrps1);
  ignore (Cache.update cache vrps2);
  let response = serve cache (Pdu.Serial_query { session_id = Cache.session_id cache; serial = 0l }) in
  Alcotest.(check (list pdu)) "cache reset" [ Pdu.Cache_reset ] response;
  (* A reachable serial still gets a delta. *)
  match serve cache (Pdu.Serial_query { session_id = Cache.session_id cache; serial = 2l }) with
  | Pdu.Cache_response _ :: _ -> ()
  | _ -> Alcotest.fail "expected cache response for retained serial"

let test_unknown_session_resets () =
  let cache = Cache.create vrps1 in
  match serve cache (Pdu.Serial_query { session_id = Cache.session_id cache + 1; serial = 0l }) with
  | [ Pdu.Cache_reset ] -> ()
  | _ -> Alcotest.fail "expected cache reset for unknown session"

let test_router_recovers_from_cache_reset () =
  let cache = Cache.create ~history_limit:1 vrps1 in
  let session = Rtr.Session.connect cache 1 in
  let router = List.hd (Rtr.Session.routers session) in
  (* Push updates directly into the cache (no notify), exceeding the
     history window; the next sync forces a reset + full reload. *)
  ignore (Cache.update cache []);
  ignore (Cache.update cache vrps2);
  (match Router.receive router ~now:0 (Pdu.Serial_notify { session_id = Cache.session_id cache; serial = Cache.serial cache }) with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Rtr.Session.pump session;
  Alcotest.(check bool) "synced again" true (Router.synced router);
  Alcotest.check vset "full state recovered" (Vset.of_list vrps2) (Router.vrps router)

let test_protocol_violations () =
  let r = Router.create () in
  (match Router.receive r ~now:0 (Pdu.Prefix { flags = Pdu.Announce; vrp = List.hd vrps1 }) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "prefix without a connection accepted");
  Router.connected r ~now:0;
  (match Router.receive r ~now:0 Pdu.Reset_query with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "query accepted by router");
  (* The violation aborts the exchange; reconnect and try a clean one. *)
  Router.disconnected r ~now:0;
  Router.connected r ~now:1;
  ignore (Router.pending r);
  (match Router.receive r ~now:1 (Pdu.Cache_response { session_id = 1 }) with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (match Router.receive r ~now:1 (Pdu.Prefix { flags = Pdu.Announce; vrp = List.hd vrps1 }) with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  (* Duplicate announce within one transfer. *)
  (match Router.receive r ~now:1 (Pdu.Prefix { flags = Pdu.Announce; vrp = List.hd vrps1 }) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "duplicate announce accepted");
  Alcotest.(check bool) "violation requests disconnect" true (Router.want_disconnect r);
  (* Withdrawal of an unknown record, on a fresh exchange. *)
  Router.disconnected r ~now:2;
  Router.connected r ~now:3;
  ignore (Router.pending r);
  (match Router.receive r ~now:3 (Pdu.Cache_response { session_id = 1 }) with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  match Router.receive r ~now:3 (Pdu.Prefix { flags = Pdu.Withdraw; vrp = List.nth vrps1 2 }) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown withdrawal accepted"

(* RFC 8210 §6 bounds each End of Data interval by its own maximum:
   Refresh 86,400 s, Retry 7,200 s, Expire 172,800 s. A cache that
   advertises a two-day Expire keeps the router's data usable (Stale)
   for two days, not one; an over-long Refresh is cut to one day. *)
let test_interval_maxima () =
  let r = Router.create () in
  Router.connected r ~now:0;
  ignore (Router.pending r);
  let step pdu =
    match Router.receive r ~now:0 pdu with Ok () -> () | Error e -> Alcotest.fail e
  in
  step (Pdu.Cache_response { session_id = 1 });
  step
    (Pdu.End_of_data
       { session_id = 1;
         serial = 1l;
         refresh_interval = 100_000l;
         retry_interval = 600l;
         expire_interval = 172_800l });
  let name = function
    | Router.No_data -> "No_data"
    | Router.Fresh -> "Fresh"
    | Router.Stale -> "Stale"
    | Router.Expired -> "Expired"
  in
  List.iter
    (fun (ms, want) ->
      Alcotest.(check string)
        (Printf.sprintf "freshness at %d ms" ms)
        want
        (name (Router.freshness r ~now:ms)))
    [ (86_399_999, "Fresh");
      (86_400_000, "Stale");
      (100_000_000, "Stale");
      (172_799_999, "Stale");
      (172_800_000, "Expired") ]

let gen_vrp_set = QCheck2.Gen.map (fun l -> Vset.elements (Vset.of_list l)) Testutil.gen_vrp_list

let prop_sync_reaches_cache_state =
  (* Whatever sequence of VRP sets the cache publishes, a connected
     router ends up with exactly the cache's state. *)
  QCheck2.Test.make ~name:"router state equals cache state after any update sequence" ~count:100
    QCheck2.Gen.(list_size (int_range 1 8) gen_vrp_set)
    (fun updates ->
      let cache = Cache.create [] in
      let session = Rtr.Session.connect cache 1 in
      List.iter (Rtr.Session.publish session) updates;
      let router = List.hd (Rtr.Session.routers session) in
      Router.synced router && Vset.equal (Router.vrps router) (Cache.vrps cache))

(* Covers every PDU type, both address families (via
   [Testutil.gen_vrp]), serials across the whole 32-bit circle, and
   error reports from empty to sizeable payloads. *)
let gen_pdu =
  let open QCheck2.Gen in
  let gen_serial =
    oneof
      [ map Int32.of_int (int_bound 0xffff);
        oneofl [ 0l; 1l; Int32.max_int; Int32.min_int; -1l; -2l; 0x7fffffffl; 0x80000000l ] ]
  in
  let gen_interval = map Int32.of_int (int_bound 86400) in
  oneof
    [ map2 (fun s n -> Pdu.Serial_notify { session_id = s; serial = n }) (int_bound 0xffff) gen_serial;
      map2 (fun s n -> Pdu.Serial_query { session_id = s; serial = n }) (int_bound 0xffff) gen_serial;
      return Pdu.Reset_query;
      return Pdu.Cache_reset;
      map (fun s -> Pdu.Cache_response { session_id = s }) (int_bound 0xffff);
      map2
        (fun announce vrp -> Pdu.Prefix { flags = (if announce then Pdu.Announce else Pdu.Withdraw); vrp })
        bool Testutil.gen_vrp;
      map3
        (fun s serial (refresh_interval, retry_interval, expire_interval) ->
          Pdu.End_of_data
            { session_id = s; serial; refresh_interval; retry_interval; expire_interval })
        (int_bound 0xffff) gen_serial
        (triple gen_interval gen_interval gen_interval);
      map2
        (fun code (pdu_bytes, msg) -> Pdu.Error_report { code; erroneous_pdu = pdu_bytes; message = msg })
        (oneofl
           [ Pdu.Corrupt_data; Pdu.Internal_error; Pdu.No_data_available; Pdu.Invalid_request;
             Pdu.Unsupported_protocol_version; Pdu.Unsupported_pdu_type; Pdu.Withdrawal_of_unknown_record;
             Pdu.Duplicate_announcement_received ])
        (pair
           (oneof [ return ""; string_size (int_bound 30); string_size (return 512) ])
           (oneof [ return ""; string_size (int_bound 30); string_size (return 512) ])) ]

let prop_pdu_roundtrip =
  QCheck2.Test.make ~name:"PDU encode/decode roundtrip" ~count:1000 gen_pdu (fun x ->
      match Pdu.decode (Pdu.encode x) 0 with
      | Ok (y, off) -> Pdu.equal x y && off = String.length (Pdu.encode x)
      | Error _ -> false)

let test_error_report_extremes () =
  (* Zero-length and near-framer-bound error reports round-trip, both
     through the raw decoder and through the framer. *)
  let big = String.make 65536 '\xab' in
  List.iter
    (fun x ->
      let wire = Pdu.encode x in
      (match Pdu.decode wire 0 with
       | Ok (y, off) ->
         Alcotest.check pdu "raw roundtrip" x y;
         Alcotest.(check int) "consumed" (String.length wire) off
       | Error e -> Alcotest.failf "decode failed: %s" e);
      let f = Rtr.Framer.create () in
      match Rtr.Framer.feed f wire with
      | Ok [ y ] -> Alcotest.check pdu "framed roundtrip" x y
      | Ok l -> Alcotest.failf "framer returned %d PDUs" (List.length l)
      | Error e -> Alcotest.failf "framer failed: %s" e)
    [ Pdu.Error_report { code = Pdu.No_data_available; erroneous_pdu = ""; message = "" };
      Pdu.Error_report { code = Pdu.Corrupt_data; erroneous_pdu = big; message = "" };
      Pdu.Error_report { code = Pdu.Corrupt_data; erroneous_pdu = ""; message = big };
      Pdu.Error_report { code = Pdu.Internal_error; erroneous_pdu = big; message = big } ]

(* --- the framer at the paper's PDU counts --- *)

(* A Reset response the size of the paper's "Today" set (Table 1:
   42,657 VRPs), all IPv4 Prefix PDUs: 853 KB on the wire. *)
let today_reset_pdus =
  let prefix i =
    let pfx = Netaddr.Ipv4.Prefix.make (Netaddr.Ipv4.of_int32_bits ((0x010000 + i) lsl 8)) 24 in
    Pdu.Prefix
      { flags = Pdu.Announce;
        vrp = Vrp.make_exn (Netaddr.Pfx.v4 pfx) ~max_len:(24 + (i mod 9)) (a (64496 + (i mod 97)))
      }
  in
  (Pdu.Cache_response { session_id = 7 } :: List.init 42_657 prefix)
  @ [ Pdu.End_of_data
        { session_id = 7;
          serial = 1l;
          refresh_interval = 3600l;
          retry_interval = 600l;
          expire_interval = 7200l } ]

(* Feed [wire] cut at the given chunk lengths (the last chunk takes
   whatever is left); the PDUs the framer yields, in order. *)
let feed_cuts wire cuts =
  let f = Rtr.Framer.create () in
  let n = String.length wire in
  let rec go off cuts acc =
    if off = n then (List.rev acc, Rtr.Framer.pending_bytes f)
    else
      let len, cuts = match cuts with [] -> (n - off, []) | c :: r -> (min c (n - off), r) in
      match Rtr.Framer.feed f (String.sub wire off len) with
      | Ok pdus -> go (off + len) cuts (List.rev_append pdus acc)
      | Error e -> Alcotest.failf "framer failed at byte %d: %s" off e
  in
  go 0 cuts []

let test_framer_paper_scale_partitions () =
  let wire = Pdu.encode_all today_reset_pdus in
  let expected = Testutil.check_ok (Pdu.decode_all wire) in
  let n = String.length wire in
  let rng = Rng.create 2017 in
  let random_cuts =
    let rec go left acc =
      if left <= 0 then List.rev acc
      else
        let c = 1 + Rng.int rng (if Rng.bool rng then 64 else 8192) in
        go (left - c) (c :: acc)
    in
    go n []
  in
  List.iter
    (fun (name, cuts) ->
      let got, pending = feed_cuts wire cuts in
      Alcotest.(check int) (name ^ ": PDU count") (List.length expected) (List.length got);
      Alcotest.(check bool) (name ^ ": decode_all's list") true (List.equal Pdu.equal expected got);
      Alcotest.(check int) (name ^ ": nothing pending") 0 pending)
    [ ("whole", []);
      ("64 KB chunks", List.init ((n / 65536) + 1) (fun _ -> 65536));
      ("random cuts", random_cuts);
      ("4 KB prefix in 1-byte chunks", List.init 4096 (fun _ -> 1)) ]

(* Counted, not timed: the words allocated while feeding stay within
   [c] per byte fed plus [d] per PDU yielded. The framer itself
   allocates about 0.75 words per byte for a PDU buffered across
   byte-sized chunks (buffer doubling, one copy out, the decoder's
   text copy), and the decoder about 22 words per Prefix PDU. A
   framer that re-copies its unconsumed bytes per PDU or per chunk is
   quadratic and misses the bound by orders of magnitude on both
   inputs. *)
let c_words_per_byte = 1.
let d_words_per_pdu = 32.

let check_linear name ~bytes ~pdus words =
  let bound = (c_words_per_byte *. float_of_int bytes) +. (d_words_per_pdu *. float_of_int pdus) in
  if words > bound then
    Alcotest.failf "%s: %.0f words allocated for %d bytes and %d PDUs (bound %.0f)" name words
      bytes pdus bound

let test_framer_linear_work () =
  let wire = Pdu.encode_all today_reset_pdus in
  let f = Rtr.Framer.create () in
  let got, words = Testutil.allocated_words (fun () -> Rtr.Framer.feed f wire) in
  let pdus = List.length (Testutil.check_ok got) in
  Alcotest.(check int) "whole Reset decoded" (List.length today_reset_pdus) pdus;
  check_linear "Reset in one chunk" ~bytes:(String.length wire) ~pdus words;
  let report =
    Pdu.encode
      (Pdu.Error_report
         { code = Pdu.Corrupt_data; erroneous_pdu = ""; message = String.make 65536 '\xab' })
  in
  let bytes = List.init (String.length report) (fun i -> String.make 1 report.[i]) in
  let f = Rtr.Framer.create () in
  let pdus, words =
    Testutil.allocated_words (fun () ->
        List.fold_left
          (fun acc b -> acc + List.length (Testutil.check_ok (Rtr.Framer.feed f b)))
          0 bytes)
  in
  Alcotest.(check int) "one Error Report" 1 pdus;
  check_linear "64 KB Error Report byte by byte" ~bytes:(String.length report) ~pdus words

(* --- framer robustness (satellite: any re-chunking, any damage) --- *)

let prop_framer_rechunk_equivalence =
  (* Feeding a valid stream in ANY chunking yields the same PDU list
     as decoding it whole. *)
  let open QCheck2 in
  Test.make ~name:"framer is chunking-invariant on valid streams" ~count:200
    Gen.(pair (list_size (int_range 1 12) gen_pdu) (int_range 0 10000))
    (fun (pdus, salt) ->
      let wire = String.concat "" (List.map Pdu.encode pdus) in
      let rng = Rng.create salt in
      let f = Rtr.Framer.create () in
      let got = ref [] in
      let off = ref 0 in
      let ok = ref true in
      while !ok && !off < String.length wire do
        let len = min (1 + Rng.int rng 64) (String.length wire - !off) in
        (match Rtr.Framer.feed f (String.sub wire !off len) with
         | Ok out -> got := List.rev_append out !got
         | Error _ -> ok := false);
        off := !off + len
      done;
      !ok && List.equal Pdu.equal pdus (List.rev !got) && Rtr.Framer.pending_bytes f = 0)

let prop_framer_never_raises =
  (* Truncated or corrupted streams produce a terminal framer error or
     a short PDU list — never an exception. *)
  let open QCheck2 in
  Test.make ~name:"damaged streams never raise; errors are terminal" ~count:300
    Gen.(pair (list_size (int_range 1 8) gen_pdu) (int_range 0 100000))
    (fun (pdus, salt) ->
      let rng = Rng.create salt in
      let wire =
        let w = String.concat "" (List.map Pdu.encode pdus) in
        let b = Bytes.of_string w in
        (* Corrupt a few bytes, then maybe truncate. *)
        for _ = 1 to 1 + Rng.int rng 4 do
          Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256))
        done;
        let w = Bytes.to_string b in
        if Rng.bool rng then String.sub w 0 (Rng.int rng (String.length w + 1)) else w
      in
      let f = Rtr.Framer.create () in
      let saw_error = ref false in
      let off = ref 0 in
      while !off < String.length wire do
        let len = min (1 + Rng.int rng 32) (String.length wire - !off) in
        (match Rtr.Framer.feed f (String.sub wire !off len) with
         | Ok _ -> ()
         | Error _ -> saw_error := true);
        off := !off + len
      done;
      (* Once failed, always failed — and a fresh framer (the reconnect
         path) accepts a clean stream again. *)
      (if !saw_error then
         match Rtr.Framer.feed f (Pdu.encode Pdu.Reset_query) with
         | Ok _ -> QCheck2.Test.fail_report "framer accepted input after terminal error"
         | Error _ -> ());
      match Rtr.Framer.feed (Rtr.Framer.create ()) (Pdu.encode Pdu.Reset_query) with
      | Ok [ Pdu.Reset_query ] -> true
      | Ok _ | Error _ -> false)

(* --- encode-once fan-out (satellite: wire path equals reference) --- *)

let wire_of_pdus pdus = String.concat "" (List.map Pdu.encode pdus)

let prop_wire_path_matches_reference =
  (* The encode-once path must be byte-identical to the reference path
     under every query kind. The oracle is [Oracle.Cache_ref]: it
     builds PDU values from the cache's public state and states the
     Prefix PDU order (announces, then withdrawals, each descending)
     on its own, so a reordered segment fails here. Each query runs
     twice so the memoized (snapshot, merged catch-up) branches are
     exercised too. A second cache gets every update in canonical form
     (sorted, deduplicated), which [update] diffs in one merge walk;
     the first keeps the raw unordered lists with duplicates, which it
     sorts first. Both must agree on serial, set and every response
     byte. A serial one past the current one is unreachable and gets a
     Cache Reset. *)
  let open QCheck2 in
  Test.make ~name:"handle_wire bytes equal per-PDU encoding of handle" ~count:100
    Gen.(pair (int_range 1 14) (int_range 0 10_000))
    (fun (updates, salt) ->
      let rng = Rng.create salt in
      let cache = Cache.create ~history_limit:4 ~initial_serial:0xFFFF_FFFDl [] in
      let canon = Cache.create ~history_limit:4 ~initial_serial:0xFFFF_FFFDl [] in
      let serials = ref [ Cache.serial cache ] in
      let agree = ref true in
      for _ = 1 to updates do
        let vrps =
          List.init (Rng.int rng 6) (fun _ ->
              Vrp.exact (p (Printf.sprintf "10.%d.%d.0/24" (Rng.int rng 4) (Rng.int rng 4))) (a 1))
        in
        ignore (Cache.update cache vrps);
        ignore (Cache.update canon (List.sort_uniq Vrp.compare vrps));
        agree :=
          !agree
          && Int32.equal (Cache.serial cache) (Cache.serial canon)
          && Vrp.Set.equal (Cache.vrps cache) (Cache.vrps canon);
        serials := Cache.serial cache :: !serials
      done;
      let sid = Cache.session_id cache in
      let future = Pdu.Serial_query { session_id = sid; serial = Serial.succ (Cache.serial cache) } in
      let queries =
        Pdu.Reset_query
        :: Pdu.Serial_query { session_id = sid + 1; serial = Cache.serial cache }
        :: future
        :: Pdu.Cache_reset (* not a query: Error Report path *)
        :: Pdu.Error_report { code = Pdu.Internal_error; erroneous_pdu = ""; message = "" }
        :: List.map (fun serial -> Pdu.Serial_query { session_id = sid; serial }) !serials
      in
      !agree
      && (match Cache_ref.handle cache future with [ Pdu.Cache_reset ] -> true | _ -> false)
      && List.for_all
           (fun q ->
             let reference = wire_of_pdus (Cache_ref.handle cache q) in
             String.equal reference (String.concat "" (Cache.handle_wire cache q))
             && String.equal reference (String.concat "" (Cache.handle_wire cache q))
             && String.equal reference (String.concat "" (Cache.handle_wire canon q)))
           queries)

let test_encode_once_fanout () =
  (* Serving N sessions costs one delta encode per update and one
     snapshot encode per bump — however large N grows. *)
  let cache = Cache.create ~history_limit:8 vrps1 in
  let updates = [ vrps2; vrps1; vrps2 ] in
  List.iter (fun u -> ignore (Cache.update cache u)) updates;
  let sid = Cache.session_id cache in
  let sessions = 50 in
  let prev = Serial.add (Cache.serial cache) (-1) in
  let deep = Serial.add (Cache.serial cache) (-3) in
  for _ = 1 to sessions do
    ignore (Cache.handle_wire cache Pdu.Reset_query);
    ignore (Cache.handle_wire cache (Pdu.Serial_query { session_id = sid; serial = prev }));
    ignore (Cache.handle_wire cache (Pdu.Serial_query { session_id = sid; serial = deep }))
  done;
  let s = Cache.stats cache in
  Alcotest.(check int) "one delta encode per update" (List.length updates) s.Cache.delta_encodes;
  Alcotest.(check int) "one snapshot encode for all sessions" 1 s.Cache.snapshot_encodes;
  Alcotest.(check int) "every further reset reuses it" (sessions - 1) s.Cache.snapshot_reuses;
  Alcotest.(check int) "one merged catch-up encode for all sessions" 1 s.Cache.merge_encodes;
  Alcotest.(check int) "every wire query answered" (3 * sessions) s.Cache.wire_responses

let test_retention_bounded () =
  (* Evicted serials must release their buffers: across 10x
     history_limit further updates of identical shape, the cached
     bytes — with every lazy segment (snapshot, End of Data, notify,
     one deep catch-up) materialized — must not grow. *)
  let limit = 4 in
  let cache = Cache.create ~history_limit:limit [] in
  let shape i = [ List.nth vrps1 (i mod 2) ] in
  let sid = Cache.session_id cache in
  let materialize () =
    ignore (Cache.handle_wire cache Pdu.Reset_query);
    ignore (Cache.notify_wire cache);
    ignore
      (Cache.handle_wire cache
         (Pdu.Serial_query { session_id = sid; serial = Cache.oldest_serial cache }));
    Cache.retained_bytes cache
  in
  (* Fill the window, plus one alternation cycle to reach steady state. *)
  let baseline = ref 0 in
  for i = 1 to limit + 2 do
    ignore (Cache.update cache (shape i));
    baseline := max !baseline (materialize ())
  done;
  for i = limit + 3 to limit + 2 + (10 * limit) do
    ignore (Cache.update cache (shape i));
    let b = materialize () in
    if b > !baseline then
      Alcotest.failf "retained bytes grew after eviction: %d > %d (update %d)" b !baseline i
  done

let () =
  Alcotest.run "rtr"
    [ ( "wire",
        [ Alcotest.test_case "roundtrip all types" `Quick test_roundtrip_all;
          Alcotest.test_case "stream decode" `Quick test_stream_decode;
          Alcotest.test_case "pinned layout" `Quick test_wire_layout;
          Alcotest.test_case "rejects malformed" `Quick test_decode_rejects;
          Alcotest.test_case "byte-mutation fuzz" `Slow test_decode_total_fuzz ] );
      ( "framer",
        [ Alcotest.test_case "byte by byte" `Quick test_framer_byte_by_byte;
          Alcotest.test_case "random chunks" `Quick test_framer_random_chunks;
          Alcotest.test_case "empty and partial chunks" `Quick test_framer_empty_chunks;
          Alcotest.test_case "terminal error" `Quick test_framer_terminal_error;
          Alcotest.test_case "oversized PDU" `Quick test_framer_oversized_pdu;
          Alcotest.test_case "error report extremes" `Quick test_error_report_extremes;
          Alcotest.test_case "paper-scale Reset: every partition" `Quick
            test_framer_paper_scale_partitions;
          Alcotest.test_case "work is linear in the bytes fed" `Quick test_framer_linear_work ] );
      ( "session",
        [ Alcotest.test_case "initial sync" `Quick test_initial_sync;
          Alcotest.test_case "incremental update" `Quick test_incremental_update;
          Alcotest.test_case "delta is minimal" `Quick test_delta_is_minimal;
          Alcotest.test_case "no-change update" `Quick test_no_change_no_serial;
          Alcotest.test_case "many updates" `Quick test_many_updates_converge;
          Alcotest.test_case "old serial gets reset" `Quick test_cache_reset_on_old_serial;
          Alcotest.test_case "unknown session" `Quick test_unknown_session_resets;
          Alcotest.test_case "recovers from cache reset" `Quick test_router_recovers_from_cache_reset;
          Alcotest.test_case "protocol violations" `Quick test_protocol_violations;
          Alcotest.test_case "End of Data interval maxima" `Quick test_interval_maxima ] );
      ( "fan-out",
        [ Alcotest.test_case "encode once per update" `Quick test_encode_once_fanout;
          Alcotest.test_case "retention bounded" `Quick test_retention_bounded ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sync_reaches_cache_state; prop_pdu_roundtrip;
            prop_cache_answers_every_retained_serial; prop_wire_path_matches_reference;
            prop_framer_rechunk_equivalence; prop_framer_never_raises ] ) ]
