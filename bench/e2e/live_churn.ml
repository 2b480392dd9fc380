(* live-churn: the live cache under weekly churn, fanned out over RTR.

   Set-up generates the 8-week timeline, diffs consecutive weeks, seeds
   the incremental engine with week 0 and syncs a fleet of in-process
   routers from a full snapshot. One transition applies one week's
   events, reads the compressed set, updates the RTR cache and pushes
   the change to every router — notify, then each router's Serial Query
   answered from the shared wire segments — until all of them hold the
   new serial.

   The work must not depend on the seed, and two quantities the timeline
   leaves to it do: the size of the VRP set, which recompression and the
   RTR cache update scale with, and the number of VRP changes a week
   has, which drive recompression and the RTR deltas. So every week
   keeps only the VRPs of a fixed-size set of origin ASes, and a
   transition carries the week's BGP churn and a fixed number of its
   VRP changes. A round is the seven forward transitions followed by
   their inverses in reverse order, which bring the engine back to week
   0, so state stays bounded however long the run. *)

module Churn = Rpki.Churn
module Vrp = Rpki.Vrp
module Cache = Rtr.Cache_server
module Client = Rtr.Router_client

type fleet = {
  server : Cache.t;
  routers : Client.t array;
  mutable errors : int;  (** decode_all / receive results that were [Error]. *)
  mutable bytes : int;  (** Bytes delivered to routers. *)
}

type input = {
  engine : Churn.t;
  fleet : fleet;
  script : Churn.event list array;  (** One round of transitions. *)
  week0_vrps : Vrp.t list;
  generate_ns : int;
  diff_ns : int;
  create_ns : int;
}

let span = Trace.span

(* Routers sit on a perfect in-process link: no timer ever fires, so
   virtual time stays at 0. *)
let now = 0

let deliver f router seg =
  f.bytes <- f.bytes + String.length seg;
  match
    span "pdu.decode_all" (fun () ->
        Trace.count (String.length seg);
        Rtr.Pdu.decode_all seg)
  with
  | Error _ -> f.errors <- f.errors + 1
  | Ok pdus ->
    span "router_client.receive" (fun () ->
        List.iter
          (fun pdu ->
            Trace.count 1;
            match Client.receive router ~now pdu with
            | Ok () -> ()
            | Error _ -> f.errors <- f.errors + 1)
          pdus)

(* Answer the router's queries until it has none left (one exchange;
   the bound only guards against a looping client). *)
let sync f router =
  let rec go rounds =
    match span "router_client.pending" (fun () -> Client.pending router) with
    | [] -> ()
    | queries when rounds > 0 ->
      List.iter
        (fun q ->
          let segs =
            span "cache_server.handle_wire" (fun () ->
                let segs = Cache.handle_wire f.server q in
                Trace.count (List.fold_left (fun n s -> n + String.length s) 0 segs);
                segs)
          in
          List.iter (deliver f router) segs)
        queries;
      go (rounds - 1)
    | _ :: _ -> f.errors <- f.errors + 1
  in
  go 4

let publish f vrps =
  match span "cache_server.update" (fun () -> Cache.update f.server vrps) with
  | None -> ()
  | Some _ ->
    let notify = span "cache_server.notify_wire" (fun () -> Cache.notify_wire f.server) in
    Array.iter
      (fun router ->
        deliver f router notify;
        sync f router)
      f.routers

let all_synced f =
  let serial = Some (Cache.serial f.server) in
  Array.for_all (fun r -> Option.equal Int32.equal (Client.serial r) serial) f.routers

let invert = function
  | Churn.Announce (p, a) -> Churn.Withdraw (p, a)
  | Churn.Withdraw (p, a) -> Churn.Announce (p, a)
  | Churn.Add_vrp v -> Churn.Remove_vrp v
  | Churn.Remove_vrp v -> Churn.Add_vrp v

let rec interleave a b =
  match (a, b) with [], l | l, [] -> l | x :: a, y :: b -> x :: y :: interleave a b

(* A week's diff cut down to all its BGP events and its first
   [vrp_budget] VRP events that change [vrps] (the VRP set the earlier,
   also cut-down, transitions left), removals and additions
   alternating. Every kept event changes state, so the inverses undo
   the transition exactly. Returns the VRP set after the events, and
   the events. *)
let transition_of ~vrp_budget vrps events =
  let is_vrp = function Churn.Add_vrp _ | Churn.Remove_vrp _ -> true | _ -> false in
  let is_remove = function Churn.Remove_vrp _ -> true | _ -> false in
  let vrp, bgp = List.partition is_vrp events in
  let removes, adds = List.partition is_remove vrp in
  let rec take n vrps acc = function
    | ev :: rest when n > 0 ->
      (match ev with
       | Churn.Remove_vrp v when Vrp.Set.mem v vrps ->
         take (n - 1) (Vrp.Set.remove v vrps) (ev :: acc) rest
       | Churn.Add_vrp v when not (Vrp.Set.mem v vrps) ->
         take (n - 1) (Vrp.Set.add v vrps) (ev :: acc) rest
       | _ -> take n vrps acc rest)
    | _ -> (vrps, List.rev_append acc bgp)
  in
  take vrp_budget vrps [] (interleave removes adds)

module Int_set = Set.Make (Int)

(* The lowest-numbered origin ASes that together hold at least [target]
   of [vrps]. *)
let origins_holding ~target vrps =
  let rec take kept n = function
    | asn :: rest when n < target || Int_set.mem asn kept ->
      take (Int_set.add asn kept) (n + 1) rest
    | _ -> kept
  in
  take Int_set.empty 0
    (List.sort Int.compare (List.map (fun (v : Vrp.t) -> Rpki.Asnum.to_int v.asn) vrps))

let build ~scale ~vrp_target ~vrp_budget ~seed ~routers =
  let weeks, generate_ns =
    Common.time (fun () ->
        Dataset.Timeline.generate ~params:(Dataset.Snapshot.scaled scale) ~seed ())
  in
  let states =
    Array.of_list (List.map (fun w -> Dataset.Timeline.state_of w.Dataset.Timeline.snapshot) weeks)
  in
  let kept = origins_holding ~target:vrp_target (snd states.(0)) in
  let keep (v : Vrp.t) = Int_set.mem (Rpki.Asnum.to_int v.asn) kept in
  let states = Array.map (fun (pairs, vrps) -> (pairs, List.filter keep vrps)) states in
  let forward, diff_ns =
    Common.time (fun () ->
        Array.init
          (Array.length states - 1)
          (fun i -> Dataset.Timeline.diff ~prev:states.(i) ~next:states.(i + 1)))
  in
  let pairs0, week0_vrps = states.(0) in
  let _, forward =
    Array.fold_left_map (transition_of ~vrp_budget) (Vrp.Set.of_list week0_vrps) forward
  in
  let back = Array.of_list (List.rev_map (List.rev_map invert) (Array.to_list forward)) in
  let engine, create_ns = Common.time (fun () -> Churn.create ~pairs:pairs0 ~vrps:week0_vrps ()) in
  let fleet =
    { server = Cache.create (Churn.compressed engine);
      routers = Array.init routers (fun _ -> Client.create ());
      errors = 0;
      bytes = 0 }
  in
  Array.iter
    (fun r ->
      Client.connected r ~now;
      sync fleet r)
    fleet.routers;
  { engine;
    fleet;
    script = Array.append forward back;
    week0_vrps;
    generate_ns;
    diff_ns;
    create_ns }

let run (cfg : Common.config) =
  let scale = if cfg.smoke then 0.01 else 0.1 in
  let routers = 32 and vrp_budget = 64 in
  let vrp_target = if cfg.smoke then 300 else 3_500 in
  let input, setup =
    Common.setup cfg (fun () -> build ~scale ~vrp_target ~vrp_budget ~seed:cfg.seed ~routers)
  in
  let { engine; fleet; script; _ } = input in
  let tally = Common.tally () in
  let synced = all_synced fleet && fleet.errors = 0 in
  if not synced then Common.complain "initial router sync failed";
  Common.record tally ~ok:synced;
  let per_round = Array.length script in
  let apply_ns = Trace.series "churn.apply" in
  let k = ref 0 in
  (* First-round accounting; every round repeats it exactly. *)
  let round0_digests = Buffer.create 1024 in
  let round0_noops = ref 0 and bytes_before = fleet.bytes and round0_bytes = ref 0 in
  let traced_events = ref 0 in
  let step () =
    let round = !k / per_round and pos = !k mod per_round in
    incr k;
    let events = script.(pos) in
    let noops = ref 0 in
    let errors0 = fleet.errors in
    let compressed, ns =
      Common.time (fun () ->
          span "transition" (fun () ->
              span ~words:true "churn.apply" (fun () ->
                  List.iter
                    (fun ev ->
                      if !Trace.enabled then begin
                        let t0 = Trace.now () in
                        if not (Churn.apply engine ev) then incr noops;
                        Trace.add apply_ns (Trace.now () - t0)
                      end
                      else if not (Churn.apply engine ev) then incr noops)
                    events);
              let c = span ~words:true "churn.compressed" (fun () -> Churn.compressed engine) in
              publish fleet c;
              c))
    in
    if !Trace.enabled then traced_events := !traced_events + List.length events;
    let ok = ref (fleet.errors = errors0 && all_synced fleet) in
    if not !ok then Common.complain "transition %d: a router failed to sync" (!k - 1);
    if round = 0 then begin
      if not (List.equal Vrp.equal compressed (Mlcore.Compress.run (Churn.vrps engine))) then begin
        Common.complain "transition %d: incremental compressed set differs from Compress.run" pos;
        ok := false
      end;
      Buffer.add_string round0_digests (Common.vrps_digest compressed);
      round0_noops := !round0_noops + !noops;
      if pos = per_round - 1 then round0_bytes := fleet.bytes - bytes_before
    end;
    if pos = per_round - 1 then begin
      let served = Cache.vrps fleet.server in
      let back = List.equal Vrp.equal (Churn.vrps engine) input.week0_vrps in
      let held = Array.for_all (fun r -> Vrp.Set.equal (Client.vrps r) served) fleet.routers in
      if not (back && held) then begin
        Common.complain "round %d: engine not back at week 0 or a router's set differs" round;
        ok := false
      end
    end;
    Common.record tally ~ok:!ok;
    ns
  in
  (* A step is one transition and an iteration one round, so every
     iteration does the same work. *)
  let measured = Common.measure cfg ~per_iteration:per_round ~min_steps:per_round step in
  let round_events = Array.fold_left (fun n evs -> n + List.length evs) 0 script in
  let digest =
    Common.md5 (Printf.sprintf "%s bytes=%d" (Buffer.contents round0_digests) !round0_bytes)
  in
  let per_ms name = Common.median (Trace.durations_ns name) /. 1e6 in
  let ratio_ns name =
    Common.ratio (float_of_int (Trace.total_ns name)) (float_of_int (Trace.total_units name))
  in
  let transitions = float_of_int (max 1 (Trace.calls "transition")) in
  let layers =
    [ ("churn.apply.ns_p50", Common.median (Trace.values apply_ns));
      ("churn.apply.ns_p99", Common.percentile 0.99 (Trace.values apply_ns));
      ( "churn.apply.words_per_event",
        Common.ratio (Trace.total_words "churn.apply") (float_of_int !traced_events) );
      ( "churn.apply.noop_share",
        Common.ratio (float_of_int !round0_noops) (float_of_int round_events) );
      ("churn.compressed.ms_p50", per_ms "churn.compressed");
      ("churn.compressed.words", Trace.total_words "churn.compressed" /. transitions);
      ("cache_server.update.ms_p50", per_ms "cache_server.update");
      ("cache_server.handle_wire.us_p50", per_ms "cache_server.handle_wire" *. 1e3);
      ( "cache_server.handle_wire.bytes_per_call",
        Common.ratio
          (float_of_int (Trace.total_units "cache_server.handle_wire"))
          (float_of_int (Trace.calls "cache_server.handle_wire")) );
      ("pdu.decode_all.ns_per_byte", ratio_ns "pdu.decode_all");
      ("router_client.receive.ns_per_pdu", ratio_ns "router_client.receive");
      ("transition.self_ms", float_of_int (Trace.self_ns "transition") /. transitions /. 1e6);
      ("transition.ms_p99", Common.percentile 0.99 measured.Common.untraced.Common.steps /. 1e6);
      ( "rtr_bytes_per_router",
        Common.ratio (float_of_int !round0_bytes) (float_of_int (routers * per_round)) );
      ("timeline.generate.s", Common.ns_to_s input.generate_ns);
      ("timeline.diff.s", Common.ns_to_s input.diff_ns);
      ("churn.create.s", Common.ns_to_s input.create_ns);
      ("trace.coverage_pct", Trace.coverage_pct "transition") ]
  in
  { Common.tally;
    digest;
    setup;
    measured;
    layers;
    notes =
      [ ("scale", Printf.sprintf "%g" scale);
        ("routers", string_of_int routers);
        ("vrp_budget", string_of_int vrp_budget);
        ("pairs", string_of_int (Churn.pair_count engine));
        ("vrps", string_of_int (Churn.vrp_count engine));
        ( "events_per_transition",
          String.concat ","
            (Array.to_list (Array.map (fun e -> string_of_int (List.length e)) script)) ) ] }
