(* The fault-injection simulator: virtual clock semantics, link fault
   policies, and the headline acceptance sweep — under every fault
   policy, every router either converges on the cache's final VRP set
   or lands in an explicit degraded state, deterministically. *)

module Clock = Netsim.Clock
module Fault = Netsim.Fault
module Link = Netsim.Link
module Sim = Netsim.Rtr_sim

(* --- clock -------------------------------------------------------- *)

let test_clock_ordering () =
  let c = Clock.create () in
  let got = ref [] in
  Clock.at c ~time:30 (fun () -> got := 30 :: !got);
  Clock.at c ~time:10 (fun () -> got := 10 :: !got);
  Clock.at c ~time:20 (fun () -> got := 20 :: !got);
  Clock.run_until c 100;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !got);
  Alcotest.(check int) "clock at target" 100 (Clock.now c);
  Alcotest.(check int) "three executed" 3 (Clock.executed c)

let test_clock_fifo_ties () =
  let c = Clock.create () in
  let got = ref [] in
  for i = 1 to 8 do
    Clock.at c ~time:5 (fun () -> got := i :: !got)
  done;
  Clock.run_until c 5;
  Alcotest.(check (list int)) "same-time events run FIFO" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.rev !got)

let test_clock_past_clamps () =
  let c = Clock.create () in
  Clock.advance c 50;
  let ran = ref (-1) in
  Clock.at c ~time:10 (fun () -> ran := Clock.now c);
  Clock.run_until c 50;
  Alcotest.(check int) "past event runs now, not before" 50 !ran

let test_clock_cascading () =
  (* An event scheduling another event within the advance window. *)
  let c = Clock.create () in
  let got = ref [] in
  Clock.at c ~time:10 (fun () ->
      got := `A :: !got;
      Clock.after c ~delay:5 (fun () -> got := `B :: !got));
  Clock.run_until c 20;
  Alcotest.(check int) "both ran" 2 (List.length !got);
  Alcotest.(check bool) "in order" true (List.rev !got = [ `A; `B ])

(* --- links -------------------------------------------------------- *)

let run_link ~policy ~seed payloads =
  let clock = Clock.create () in
  let rng = Rng.create seed in
  let got = Buffer.create 256 in
  let link =
    Link.create ~clock ~rng ~policy
      ~deliver:(fun ~tainted:_ chunk -> Buffer.add_string got chunk)
      ~conn_drop:(fun () -> Alcotest.fail "unexpected connection drop")
  in
  List.iter (fun p -> Link.send link p) payloads;
  Clock.run_until clock 1_000_000;
  Buffer.contents got

let test_link_perfect_delivers () =
  let payloads = [ "hello"; " "; "world"; String.make 4096 'x' ] in
  Alcotest.(check string) "bytes intact, in order" (String.concat "" payloads)
    (run_link ~policy:Fault.perfect ~seed:7 payloads)

let test_link_rechunk_preserves_stream () =
  (* Whatever the chunking, a FIFO lossless link is stream-transparent. *)
  let payload = String.init 2_000 (fun i -> Char.chr (i land 0xff)) in
  for seed = 1 to 20 do
    Alcotest.(check string)
      (Printf.sprintf "seed %d" seed)
      payload
      (run_link ~policy:Fault.rechunking ~seed [ payload ])
  done

let test_link_closed_suppresses () =
  let clock = Clock.create () in
  let link =
    Link.create ~clock ~rng:(Rng.create 3) ~policy:Fault.delaying
      ~deliver:(fun ~tainted:_ _ -> Alcotest.fail "delivered after close")
      ~conn_drop:(fun () -> ())
  in
  Link.send link "doomed bytes";
  Link.close link;
  Clock.run_until clock 1_000_000

let test_link_fault_accounting () =
  (* Under a heavily lossy policy the stats must add up: every chunk is
     either dropped or delivered (duplicates add deliveries). *)
  let clock = Clock.create () in
  let policy = { Fault.lossy with Fault.drop = 0.3; duplicate = 0.2 } in
  let delivered = ref 0 in
  let link =
    Link.create ~clock ~rng:(Rng.create 11) ~policy
      ~deliver:(fun ~tainted:_ _ -> incr delivered)
      ~conn_drop:(fun () -> ())
  in
  for _ = 1 to 50 do
    Link.send link (String.make 100 'p')
  done;
  Clock.run_until clock 1_000_000;
  let s = Link.stats link in
  Alcotest.(check int) "delivered callback count" s.Link.delivered !delivered;
  Alcotest.(check int) "chunks = dropped + (delivered - duplicated)" s.Link.chunks
    (s.Link.dropped + s.Link.delivered - s.Link.duplicated);
  Alcotest.(check bool) "some drops happened" true (s.Link.dropped > 0)

(* --- the simulator ------------------------------------------------ *)

let check_report r =
  if not r.Sim.ok then
    Alcotest.failf "seed %d policy %s failed:\n%a\n--- trace tail ---\n%s" r.Sim.seed r.Sim.policy
      Sim.pp_report r
      (let t = r.Sim.trace in
       let n = String.length t in
       String.sub t (max 0 (n - 2000)) (n - max 0 (n - 2000)))

let test_policy_smoke () =
  (* One seed through every policy; every run must satisfy the
     acceptance predicate and actually move data. *)
  List.iter
    (fun policy ->
      let r = Sim.run ~seed:42 ~policy () in
      check_report r;
      Alcotest.(check bool)
        (policy.Fault.name ^ " saw publications")
        true
        (r.Sim.publishes >= 19);
      Alcotest.(check bool) (policy.Fault.name ^ " moved bytes") true (r.Sim.link.Link.bytes > 0))
    Fault.all

let test_perfect_strict () =
  (* On benign links the outcome must be perfect: every router on the
     exact final set with zero violations, timeouts or drops. Heavy
     delay may leave a router momentarily past its refresh interval at
     the measurement instant, so [delaying] routers may read Stale —
     but never worse. *)
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let r = Sim.run ~seed ~policy () in
          check_report r;
          List.iter
            (fun o ->
              let name = Printf.sprintf "%s/%d router %d" policy.Fault.name seed o.Sim.router in
              let fresh_enough =
                match o.Sim.freshness with
                | Rtr.Router_client.Fresh -> true
                | Rtr.Router_client.Stale -> policy.Fault.name = "delaying"
                | Rtr.Router_client.No_data | Rtr.Router_client.Expired -> false
              in
              Alcotest.(check bool) (name ^ " fresh") true fresh_enough;
              Alcotest.(check bool) (name ^ " exact set") true o.Sim.vrps_ok;
              Alcotest.(check int) (name ^ " violations") 0 o.Sim.client.Rtr.Router_client.violations;
              Alcotest.(check int) (name ^ " timeouts") 0 o.Sim.client.Rtr.Router_client.timeouts;
              Alcotest.(check int) (name ^ " reconnects") 0 o.Sim.reconnects)
            r.Sim.outcomes)
        [ 1; 2; 3 ])
    [ Fault.perfect; Fault.rechunking; Fault.delaying ]

let test_serial_wrap_crossed () =
  (* The default config starts 16 serials before the wrap and publishes
     20 updates: the run must end on the far side with routers tracking
     incrementally (no full resync on a benign link). *)
  let r = Sim.run ~seed:5 ~policy:Fault.perfect () in
  check_report r;
  Alcotest.(check int32) "final serial wrapped" 4l r.Sim.final_serial;
  List.iter
    (fun o ->
      Alcotest.(check (option int32)) "router serial" (Some 4l) o.Sim.serial;
      Alcotest.(check int) "no resyncs" 0 o.Sim.client.Rtr.Router_client.full_resyncs)
    r.Sim.outcomes

let test_determinism () =
  List.iter
    (fun policy ->
      let a = Sim.run ~seed:1234 ~policy () in
      let b = Sim.run ~seed:1234 ~policy () in
      Alcotest.(check string) (policy.Fault.name ^ " same fingerprint") a.Sim.fingerprint
        b.Sim.fingerprint;
      Alcotest.(check string) (policy.Fault.name ^ " same trace") a.Sim.trace b.Sim.trace;
      Alcotest.(check int) (policy.Fault.name ^ " same events") a.Sim.events b.Sim.events;
      let c = Sim.run ~seed:1235 ~policy () in
      Alcotest.(check bool)
        (policy.Fault.name ^ " different seed, different trace")
        false
        (String.equal a.Sim.fingerprint c.Sim.fingerprint))
    Fault.all

(* Encode-once on a simulated fleet: 1,000 sessions on a mix of fast
   and slow links against one cache. However many sessions ask, each
   publication is encoded exactly once, and the fleet still ends
   (almost entirely) Fresh on the exact final set. *)
let test_fanout_encode_once () =
  let config = { Sim.default_config with Sim.routers = 1_000; trace = false } in
  let r =
    Sim.run ~config ~mix:Fault.[ perfect; rechunking; delaying ] ~seed:42 ~policy:Fault.perfect ()
  in
  check_report r;
  Alcotest.(check int) "one delta encode per publish" r.Sim.publishes
    r.Sim.cache_stats.Rtr.Cache_server.delta_encodes;
  let fresh =
    List.length
      (List.filter
         (fun o -> o.Sim.freshness = Rtr.Router_client.Fresh && o.Sim.vrps_ok)
         r.Sim.outcomes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 90%% of sessions fresh (%d/%d)" fresh config.Sim.routers)
    true
    (fresh * 10 >= config.Sim.routers * 9)

let sweep ~seeds ~policies =
  let total = ref 0 in
  let fresh = ref 0 in
  let routers = ref 0 in
  List.iter
    (fun policy ->
      for seed = 1 to seeds do
        let r = Sim.run ~seed ~policy () in
        check_report r;
        incr total;
        List.iter
          (fun o ->
            incr routers;
            if o.Sim.freshness = Rtr.Router_client.Fresh && o.Sim.vrps_ok then incr fresh)
          r.Sim.outcomes
      done)
    policies;
  (!total, !routers, !fresh)

let test_sweep_small () =
  let total, routers, fresh = sweep ~seeds:25 ~policies:Fault.all in
  Alcotest.(check int) "runs" (25 * List.length Fault.all) total;
  (* Faults may degrade individual routers, but the fleet must still
     mostly converge: the policies are tuned so a large majority of
     routers end Fresh on the exact final set. *)
  Alcotest.(check bool)
    (Printf.sprintf "most routers fresh (%d/%d)" fresh routers)
    true
    (fresh * 10 >= routers * 9)

let test_sweep_full () =
  (* The acceptance sweep: 500 seeds under every policy. [check_report]
     inside [sweep] enforces the invariant for every single run. *)
  let total, routers, fresh = sweep ~seeds:500 ~policies:Fault.all in
  Alcotest.(check int) "runs" (500 * List.length Fault.all) total;
  Alcotest.(check bool)
    (Printf.sprintf "most routers fresh (%d/%d)" fresh routers)
    true
    (fresh * 10 >= routers * 9);
  (* Re-run a sample of seeds: the whole sweep must be replayable. *)
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let a = Sim.run ~seed ~policy () in
          let b = Sim.run ~seed ~policy () in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d replays" policy.Fault.name seed)
            a.Sim.fingerprint b.Sim.fingerprint)
        [ 17; 251; 499 ])
    [ Fault.lossy; Fault.chaos ]

let () =
  Alcotest.run "netsim"
    [ ( "clock",
        [ Alcotest.test_case "ordering" `Quick test_clock_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_clock_fifo_ties;
          Alcotest.test_case "past clamps to now" `Quick test_clock_past_clamps;
          Alcotest.test_case "cascading events" `Quick test_clock_cascading ] );
      ( "link",
        [ Alcotest.test_case "perfect delivery" `Quick test_link_perfect_delivers;
          Alcotest.test_case "rechunking is stream-transparent" `Quick
            test_link_rechunk_preserves_stream;
          Alcotest.test_case "close suppresses in-flight" `Quick test_link_closed_suppresses;
          Alcotest.test_case "fault accounting" `Quick test_link_fault_accounting ] );
      ( "sim",
        [ Alcotest.test_case "every policy, one seed" `Quick test_policy_smoke;
          Alcotest.test_case "benign links: strict" `Quick test_perfect_strict;
          Alcotest.test_case "serial wrap crossed" `Quick test_serial_wrap_crossed;
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "encode once across 1,000 sessions" `Quick test_fanout_encode_once;
          Alcotest.test_case "sweep (sampled)" `Quick test_sweep_small;
          Alcotest.test_case "sweep (500 seeds, all policies)" `Slow test_sweep_full ] ) ]
