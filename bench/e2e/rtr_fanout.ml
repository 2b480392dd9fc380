(* rtr-fanout: the RTR serve path at fleet scale.

   One iteration is one simulated deployment (Netsim.Rtr_sim): a cache
   publishing its scripted VRP sets to a fleet of sessions on perfect,
   rechunking and delaying links, with reconnects, Reset snapshots,
   squashed diffs, the framer and the clock wheel. Consecutive
   iterations simulate consecutive seeds. No VRP computation happens
   here, so dataset, compression and churn changes must leave it alone. *)

module Sim = Netsim.Rtr_sim

let mix = Netsim.Fault.[ perfect; rechunking; delaying ]

let config sessions = { Sim.default_config with Sim.routers = sessions; trace = false }

let deploy ~sessions ~seed =
  Sim.run ~config:(config sessions) ~mix ~seed ~policy:Netsim.Fault.perfect ()

(* A session fails when it ends degraded or holds another set than the
   cache serves; Stale data on the exact set is a working session. *)
let session_ok (o : Sim.router_outcome) =
  o.Sim.vrps_ok
  &&
  match o.Sim.freshness with
  | Rtr.Router_client.Fresh | Rtr.Router_client.Stale -> true
  | Rtr.Router_client.Expired | Rtr.Router_client.No_data -> false

let fresh_share (r : Sim.report) =
  let fresh (o : Sim.router_outcome) =
    match o.Sim.freshness with Rtr.Router_client.Fresh -> o.Sim.vrps_ok | _ -> false
  in
  Common.ratio
    (float_of_int (List.length (List.filter fresh r.Sim.outcomes)))
    (float_of_int (List.length r.Sim.outcomes))

(* Virtual ms from the last publish until each router held the final
   set for good. *)
let to_fresh_ms (r : Sim.report) =
  List.filter_map
    (fun o -> Option.map (fun t -> float_of_int (max 0 (t - r.Sim.last_publish))) o.Sim.first_final)
    r.Sim.outcomes

let report_digest (r : Sim.report) =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "publishes=%d serial=%ld events=%d end=%d\n" r.Sim.publishes
    r.Sim.final_serial r.Sim.events r.Sim.end_time;
  List.iter
    (fun o ->
      Printf.bprintf buf "%d %b %b %d %d\n" o.Sim.router o.Sim.vrps_ok o.Sim.synced
        o.Sim.reconnects
        (Option.value o.Sim.first_final ~default:(-1)))
    r.Sim.outcomes;
  Common.md5 (Buffer.contents buf)

let run (cfg : Common.config) =
  let sessions = if cfg.smoke then 200 else 2_000 in
  (* Set-up is a warm-up deployment of half the fleet: heap growth and
     first-touch costs land here instead of in the first timed
     iteration. *)
  let warm, setup =
    Common.setup cfg (fun () -> deploy ~sessions:(sessions / 2) ~seed:cfg.seed)
  in
  let tally = Common.tally () in
  Common.record tally ~ok:warm.Sim.ok;
  let next = ref cfg.seed in
  let first = ref None in
  let events = ref 0 and reconnects = ref 0 and traced_sessions = ref 0 in
  let step () =
    let seed = !next in
    incr next;
    (* Each deployment starts on a settled heap, so the top heap does
       not depend on where the major cycle happened to stand. *)
    Gc.full_major ();
    let r, ns =
      Common.time (fun () ->
          Trace.span "iteration" (fun () ->
              Trace.span ~words:true "rtr_sim.run" (fun () -> deploy ~sessions ~seed)))
    in
    if !Trace.enabled then begin
      events := !events + r.Sim.events;
      reconnects := !reconnects + List.fold_left (fun a o -> a + o.Sim.reconnects) 0 r.Sim.outcomes;
      traced_sessions := !traced_sessions + sessions
    end;
    if Option.is_none !first then first := Some r;
    let failed = List.length (List.filter (fun o -> not (session_ok o)) r.Sim.outcomes) in
    if failed > 0 || not r.Sim.ok then
      Common.complain "seed %d: %d of %d sessions ended degraded or on the wrong set" seed failed
        sessions;
    List.iter (fun o -> Common.record tally ~ok:(session_ok o)) r.Sim.outcomes;
    ns
  in
  let measured = Common.measure cfg ~min_steps:(if cfg.smoke then 1 else 3) step in
  let r0 = match !first with Some r -> r | None -> assert false (* min_steps >= 1 *) in
  let per_session x = Common.ratio x (float_of_int !traced_sessions) in
  let layers =
    [ ("rtr_sim.run.s", Common.median (Trace.durations_ns "rtr_sim.run") /. 1e9);
      ( "rtr_sim.run.ns_per_clock_event",
        Common.ratio (float_of_int (Trace.total_ns "rtr_sim.run")) (float_of_int !events) );
      ("rtr_sim.run.clock_events_per_session", per_session (float_of_int !events));
      ("rtr_sim.run.reconnects_per_session", per_session (float_of_int !reconnects));
      ("rtr_sim.run.words_per_session", per_session (Trace.total_words "rtr_sim.run"));
      ("rtr_sim.to_fresh_p99_ms", Common.percentile 0.99 (to_fresh_ms r0));
      ("rtr_sim.fresh_share", fresh_share r0);
      ("trace.coverage_pct", Trace.coverage_pct "iteration") ]
  in
  { Common.tally;
    digest = report_digest r0;
    setup;
    measured;
    layers;
    notes =
      [ ("sessions", string_of_int sessions);
        ("mix", String.concat "," (List.map (fun p -> p.Netsim.Fault.name) mix));
        ("first_seed_publishes", string_of_int r0.Sim.publishes);
        ("first_seed_events", string_of_int r0.Sim.events) ] }
