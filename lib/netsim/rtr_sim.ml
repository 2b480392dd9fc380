module Pdu = Rtr.Pdu
module Cache = Rtr.Cache_server
module Client = Rtr.Router_client
module Framer = Rtr.Framer
module Vrp = Rpki.Vrp
module Vset = Rpki.Vrp.Set

type config = {
  routers : int;
  trace : bool;
  script : Rpki.Vrp.t list list option;
}

let default_config = { routers = 4; trace = true; script = None }

(* The deployment every run simulates; a config picks only the router
   count, tracing and the publication script. *)

(* The seed-derived script: 20 publications of at most 12 VRPs each.
   Publications, scripted or not, are 400 ms apart. *)
let synthetic_updates = 20
let max_vrps_per_update = 12
let update_gap = 400

(* The intervals the cache advertises, in seconds. *)
let refresh_s = 3
let retry_s = 2
let expire_s = 20

(* ms simulated after the last publication: longer than the expire
   interval plus the worst exchange duration, so by the end every
   router has either re-synced onto the final set or demonstrably
   expired. *)
let settle = 26_000

(* The cache's starting serial: with 20 publications every synthetic
   run crosses the RFC 1982 serial wrap, so the sweep is a standing
   wraparound regression. *)
let initial_serial = 0xFFFF_FFF0l

type router_outcome = {
  router : int;
  freshness : Client.freshness;
  synced : bool;
  vrps_ok : bool;
  serial : int32 option;
  reconnects : int;
  first_final : int option;
  client : Client.stats;
}

type report = {
  seed : int;
  policy : string;
  ok : bool;
  outcomes : router_outcome list;
  publishes : int;
  final_serial : int32;
  end_time : int;
  last_publish : int;
  events : int;
  converged_at : int option;
  link : Link.stats;
  framer_errors : int;
  cache_stats : Cache.stats;
  trace_events : int;
  fingerprint : string;
  trace : string;
}

(* One live connection incarnation. The links and framers die
   together: closing the links suppresses every in-flight chunk, and
   the next incarnation starts from fresh framers — which is exactly
   how a terminal framing error is survivable (RFC 8210 §10 makes the
   error fatal to the *connection*, not the router). *)
type conn = {
  gen : int;
  mutable alive : bool;
  c2r : Link.t; (* router -> cache bytes *)
  r2c : Link.t; (* cache -> router bytes *)
  cache_fr : Framer.t;
  router_fr : Framer.t;
}

type router = {
  idx : int;
  client : Client.t;
  rng : Rng.t; (* parent stream for this router's per-connection streams *)
  policy : Fault.t; (* this session's link fault policy *)
  mutable conn : conn option;
  mutable gen : int;
  mutable first_final : int option; (* when the installed set first became (and stayed) final *)
  (* Timer-wheel bookkeeping: the earliest enrolled wakeup and a
     generation counter that invalidates stale wheel entries. *)
  mutable enrolled_at : int;
  mutable enrol_gen : int;
}

type sim = {
  clock : Clock.t;
  wheel : Clock.Wheel.t;
  trace : Trace.t;
  trace_on : bool;
  cache : Cache.t;
  rtrs : router array;
  final_set : Vset.t;
  end_time : int;
  mutable publishes : int;
  mutable framer_errors : int;
  mutable link_totals : Link.stats;
}

let add_stats (a : Link.stats) (b : Link.stats) : Link.stats =
  { writes = a.writes + b.writes;
    chunks = a.chunks + b.chunks;
    bytes = a.bytes + b.bytes;
    delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped;
    duplicated = a.duplicated + b.duplicated;
    truncated = a.truncated + b.truncated;
    corrupted = a.corrupted + b.corrupted;
    tainted = a.tainted + b.tainted }

let zero_stats : Link.stats =
  { writes = 0; chunks = 0; bytes = 0; delivered = 0; dropped = 0; duplicated = 0; truncated = 0;
    corrupted = 0; tainted = 0 }

(* Tracing is config-gated: at 100k sessions the trace would dominate
   memory and run time, so scale runs turn it off and give up the
   replay fingerprint (determinism is still exercised by the default
   traced configurations). Every call site tests [t.trace_on] first,
   so an untraced run neither formats nor evaluates trace arguments. *)
let record t fmt = Printf.ksprintf (fun s -> Trace.record t.trace ~time:(Clock.now t.clock) s) fmt

(* --- the scripted VRP updates ------------------------------------- *)

(* A fixed candidate pool keeps consecutive sets overlapping, so the
   incremental path (announces *and* withdraws in one delta) is
   exercised constantly; both address families appear so both Prefix
   PDU wire forms cross the faulty links. *)
let make_pool rng =
  let n = 40 in
  let pool = Array.make n (Vrp.exact (Netaddr.Pfx.of_string_exn "10.0.0.0/24") (Rpki.Asnum.of_int 1)) in
  for i = 0 to n - 1 do
    let asn = Rpki.Asnum.of_int (1 + Rng.int rng 64) in
    pool.(i) <-
      (if i mod 4 = 3 then
         Vrp.make_exn
           (Netaddr.Pfx.of_string_exn (Printf.sprintf "2001:db8:%x::/48" i))
           ~max_len:(48 + Rng.int rng 9) asn
       else
         Vrp.make_exn
           (Netaddr.Pfx.of_string_exn
              (Printf.sprintf "10.%d.%d.0/24" (i land 0x7) (Rng.int rng 200)))
           ~max_len:(24 + Rng.int rng 5) asn)
  done;
  pool

let gen_updates rng =
  let pool = make_pool rng in
  let prev = ref Vset.empty in
  let rec go k acc =
    if k = 0 then List.rev acc
    else begin
      let size = 1 + Rng.int rng max_vrps_per_update in
      let s = ref Vset.empty in
      for _ = 1 to size do
        s := Vset.add (Rng.pick rng pool) !s
      done;
      (* Publications must actually change the set — a no-op update
         would not bump the serial. *)
      let s =
        if Vset.equal !s !prev then
          if Vset.mem pool.(0) !s then Vset.remove pool.(0) !s else Vset.add pool.(0) !s
        else !s
      in
      prev := s;
      go (k - 1) (s :: acc)
    end
  in
  go synthetic_updates []

(* --- timer wheel enrolment ----------------------------------------- *)

(* Router indices are packed with the enrolment generation into one
   wheel entry; 20 bits bound the session table at ~1M routers. *)
let idx_bits = 20
let idx_mask = (1 lsl idx_bits) - 1
let max_routers = idx_mask

let enrol t r =
  match Client.next_wakeup r.client with
  | None -> ()
  | Some w ->
    (* A due-but-unserviced wakeup would stall the loop; clamp it
       forward (same clamp the pre-wheel drive loop applied). *)
    let w = max w (Clock.now t.clock + 1) in
    if w < r.enrolled_at then begin
      r.enrolled_at <- w;
      r.enrol_gen <- r.enrol_gen + 1;
      Clock.Wheel.schedule t.wheel ~time:w ((r.enrol_gen lsl idx_bits) lor r.idx)
    end

(* --- connection lifecycle ----------------------------------------- *)

let flush_outbox _t r =
  match r.conn with
  | Some c when c.alive ->
    (match Client.pending r.client with
     | [] -> ()
     | pdus -> Link.send c.c2r (Pdu.encode_all pdus))
  | Some _ | None -> ignore (Client.pending r.client)

let drop_conn t r reason =
  match r.conn with
  | None -> ()
  | Some c ->
    c.alive <- false;
    Link.close c.c2r;
    Link.close c.r2c;
    t.link_totals <- add_stats (add_stats t.link_totals (Link.stats c.c2r)) (Link.stats c.r2c);
    r.conn <- None;
    Client.disconnected r.client ~now:(Clock.now t.clock);
    if t.trace_on then record t "router %d: connection %d down (%s)" r.idx c.gen reason;
    enrol t r

(* A completed exchange may have moved the installed set onto (or off)
   the final published set; track the earliest time from which the
   router held the final set continuously. *)
let note_convergence t r =
  if Client.synced r.client then begin
    if Vset.equal (Client.vrps r.client) t.final_set then begin
      if Option.is_none r.first_final then r.first_final <- Some (Clock.now t.clock)
    end
    else r.first_final <- None
  end

(* A tainted delivery is the transport detecting stream damage: the
   bytes are still processed (framer and decoder robustness is part of
   what the sweep proves), but the connection dies with them, and —
   on the router side — anything they committed is distrusted. *)
let cache_rx t r c ~tainted bytes =
  if c.alive then begin
    (match Framer.feed c.cache_fr bytes with
     | Error e ->
       t.framer_errors <- t.framer_errors + 1;
       if t.trace_on then record t "router %d: cache-side framer error: %s" r.idx e;
       drop_conn t r "cache framer error"
     | Ok pdus ->
       List.iter
         (fun pdu ->
           if c.alive then
             match pdu with
             | Pdu.Error_report { code; _ } ->
               (* §5.11: terminal; tear the connection down, answer nothing. *)
               if t.trace_on then
                 record t "router %d: cache received error report (%s)" r.idx
                   (Format.asprintf "%a" Pdu.pp_error_code code);
               drop_conn t r "error report at cache"
             | query ->
               (* The response is a run of shared encode-once segments;
                  the link ships them by reference (one logical write). *)
               (match Cache.handle_wire t.cache query with
                | [] -> ()
                | segments -> Link.send_segments c.r2c segments))
         pdus);
    (* Any response to a tainted query dies with the connection (its
       chunks are scheduled strictly later, on a link closed now). *)
    if tainted then begin
      if t.trace_on then record t "router %d: uplink stream damage" r.idx;
      drop_conn t r "uplink stream damage"
    end
  end

let router_rx t r c ~tainted bytes =
  if c.alive then begin
    let syncs_at_feed = (Client.stats r.client).Client.syncs in
    (match Framer.feed c.router_fr bytes with
     | Error e ->
       t.framer_errors <- t.framer_errors + 1;
       if t.trace_on then record t "router %d: framer error: %s" r.idx e;
       drop_conn t r "router framer error"
     | Ok pdus ->
       List.iter
         (fun pdu ->
           if c.alive then begin
             let syncs_before = (Client.stats r.client).Client.syncs in
             (match Client.receive r.client ~now:(Clock.now t.clock) pdu with
              | Ok () -> ()
              | Error e -> if t.trace_on then record t "router %d: protocol error: %s" r.idx e);
             if (Client.stats r.client).Client.syncs > syncs_before then begin
               if t.trace_on then
                 record t "router %d: synced serial=%s n=%d" r.idx
                   (match Client.serial r.client with Some s -> Int32.to_string s | None -> "-")
                   (Vset.cardinal (Client.vrps r.client));
               note_convergence t r
             end;
             flush_outbox t r;
             if Client.want_disconnect r.client then drop_conn t r "client abort"
           end)
         pdus);
    if tainted then begin
      (* If the damaged bytes managed to complete an exchange, the
         commit itself is suspect: poison the client so it degrades
         explicitly and reloads from scratch. *)
      if (Client.stats r.client).Client.syncs > syncs_at_feed then begin
        Client.poisoned r.client;
        r.first_final <- None;
        if t.trace_on then record t "router %d: poisoned by tainted commit" r.idx
      end;
      if t.trace_on then record t "router %d: downlink stream damage" r.idx;
      drop_conn t r "downlink stream damage"
    end;
    (* The receive may have moved the client's next wakeup (new
       deadline, refresh schedule, retry); keep the wheel current. *)
    enrol t r
  end

let connect_router t r =
  r.gen <- r.gen + 1;
  let gen = r.gen in
  let up_rng = Rng.split r.rng (Printf.sprintf "up-%d" gen) in
  let down_rng = Rng.split r.rng (Printf.sprintf "down-%d" gen) in
  (* The delivery callbacks look the live connection up through [r], so
     stale closures from closed incarnations can never touch a fresh
     framer. *)
  let with_conn f ~tainted bytes =
    match r.conn with
    | Some c when c.alive && c.gen = gen -> f t r c ~tainted bytes
    | Some _ | None -> ()
  in
  let conn_drop () =
    match r.conn with
    | Some c when c.alive && c.gen = gen -> drop_conn t r "link fault"
    | Some _ | None -> ()
  in
  let c2r =
    Link.create ~clock:t.clock ~rng:up_rng ~policy:r.policy ~deliver:(with_conn cache_rx)
      ~conn_drop
  and r2c =
    Link.create ~clock:t.clock ~rng:down_rng ~policy:r.policy ~deliver:(with_conn router_rx)
      ~conn_drop
  in
  let c =
    { gen; alive = true; c2r; r2c; cache_fr = Framer.create (); router_fr = Framer.create () }
  in
  r.conn <- Some c;
  if t.trace_on then record t "router %d: connection %d up" r.idx gen;
  Client.connected r.client ~now:(Clock.now t.clock);
  flush_outbox t r;
  enrol t r

(* --- the drive loop ----------------------------------------------- *)

let service t r =
  let now = Clock.now t.clock in
  match r.conn with
  | Some _ ->
    Client.tick r.client ~now;
    flush_outbox t r;
    if Client.want_disconnect r.client then drop_conn t r "exchange timed out"
  | None ->
    (match Client.reconnect_at r.client with
     | Some at when at <= now -> connect_router t r
     | Some _ | None -> ())

(* A wheel entry fires: valid only if its generation is still the
   router's current enrolment (stale entries are no-ops — the router
   re-enrolled at an earlier time, or the wakeup moved). *)
let fire t packed =
  let idx = packed land idx_mask in
  let gen = packed asr idx_bits in
  let r = t.rtrs.(idx) in
  if gen = r.enrol_gen then begin
    r.enrolled_at <- max_int;
    service t r;
    enrol t r
  end

let publish t set =
  match Cache.update t.cache (Vset.elements set) with
  | None -> if t.trace_on then record t "publish: no-op"
  | Some _notify ->
    t.publishes <- t.publishes + 1;
    if t.trace_on then
      record t "publish: serial=%ld n=%d" (Cache.serial t.cache) (Vset.cardinal set);
    (* One notify buffer, encoded once, fanned out to every live
       connection by reference. *)
    let wire = Cache.notify_wire t.cache in
    Array.iter
      (fun r -> match r.conn with Some c when c.alive -> Link.send c.r2c wire | Some _ | None -> ())
      t.rtrs

let drive t =
  let fire = fire t in
  let rec go () =
    Clock.Wheel.advance t.wheel fire;
    let now = Clock.now t.clock in
    if now < t.end_time then begin
      let next = Clock.next_time t.clock in
      let target =
        let e = match next with Some e -> min e t.end_time | None -> t.end_time in
        match Clock.Wheel.next_due t.wheel with
        | Some w -> min e (max w (now + 1))
        | None -> e
      in
      (match next with
       | Some e when e <= target -> ignore (Clock.run_next t.clock)
       | Some _ | None -> Clock.advance t.clock target);
      go ()
    end
  in
  go ();
  Clock.advance t.clock t.end_time;
  Clock.Wheel.advance t.wheel fire

(* --- one full simulation ------------------------------------------ *)

let run ?(config = default_config) ?(mix = []) ~seed ~policy () =
  let routers = max 1 (min max_routers config.routers) in
  let n_updates =
    match config.script with
    | Some sets -> max 1 (List.length sets)
    | None -> synthetic_updates
  in
  let policies = match mix with [] -> [| policy |] | l -> Array.of_list l in
  let policy_name =
    match mix with
    | [] -> policy.Fault.name
    | l -> String.concat "+" (List.map (fun (p : Fault.t) -> p.Fault.name) l)
  in
  let master = Rng.create seed in
  let clock = Clock.create () in
  let updates =
    match config.script with
    | Some sets -> List.map Vset.of_list sets
    | None -> gen_updates (Rng.split master "updates")
  in
  let final_set = List.fold_left (fun _ s -> s) Vset.empty updates in
  let cache =
    Cache.create ~history_limit:8 ~initial_serial ~refresh_interval:(Int32.of_int refresh_s)
      ~retry_interval:(Int32.of_int retry_s) ~expire_interval:(Int32.of_int expire_s)
      []
  in
  let rtrs =
    Array.init routers (fun idx ->
        { idx;
          client = Client.create ();
          rng = Rng.split master (Printf.sprintf "router-%d" idx);
          policy = policies.(idx mod Array.length policies);
          conn = None;
          gen = 0;
          first_final = None;
          enrolled_at = max_int;
          enrol_gen = 0 })
  in
  let t =
    { clock;
      wheel = Clock.Wheel.create clock;
      trace = Trace.create ();
      trace_on = config.trace;
      cache;
      rtrs;
      final_set;
      end_time = (n_updates * update_gap) + settle;
      publishes = 0;
      framer_errors = 0;
      link_totals = zero_stats }
  in
  if t.trace_on then
    record t "sim: seed=%d policy=%s routers=%d updates=%d" seed policy_name routers n_updates;
  (* Everybody dials at t=0; the publication script starts one gap later. *)
  Array.iter (fun r -> connect_router t r) rtrs;
  List.iteri
    (fun k set -> Clock.at clock ~time:((k + 1) * update_gap) (fun () -> publish t set))
    updates;
  drive t;
  (* Fold the still-open connections' link counters into the totals. *)
  Array.iter
    (fun r ->
      match r.conn with
      | Some c ->
        t.link_totals <-
          add_stats (add_stats t.link_totals (Link.stats c.c2r)) (Link.stats c.r2c)
      | None -> ())
    rtrs;
  let now = t.end_time in
  let outcomes =
    Array.to_list
      (Array.map
         (fun r ->
           { router = r.idx;
             freshness = Client.freshness r.client ~now;
             synced = Client.synced r.client;
             vrps_ok = Vset.equal (Client.vrps r.client) (Cache.vrps cache);
             serial = Client.serial r.client;
             reconnects = r.gen - 1;
             first_final = r.first_final;
             client = Client.stats r.client })
         rtrs)
  in
  let ok =
    List.for_all
      (fun o ->
        match o.freshness with
        | Client.Expired | Client.No_data -> true (* explicit degraded mode *)
        | Client.Fresh | Client.Stale -> o.vrps_ok)
      outcomes
  in
  let converged_at =
    (* Only meaningful over the routers that did converge; the latest
       of their convergence instants. *)
    Array.fold_left
      (fun acc r ->
        match r.first_final, acc with
        | None, _ -> acc
        | Some x, None -> Some x
        | Some x, Some a -> Some (max a x))
      None rtrs
  in
  if t.trace_on then
    List.iter
      (fun o ->
        record t "end: router %d freshness=%s vrps_ok=%b serial=%s" o.router
          (match o.freshness with
           | Client.No_data -> "no-data"
           | Client.Fresh -> "fresh"
           | Client.Stale -> "stale"
           | Client.Expired -> "expired")
          o.vrps_ok
          (match o.serial with Some s -> Int32.to_string s | None -> "-"))
      outcomes;
  { seed;
    policy = policy_name;
    ok;
    outcomes;
    publishes = t.publishes;
    final_serial = Cache.serial cache;
    end_time = t.end_time;
    last_publish = n_updates * update_gap;
    events = Clock.executed clock;
    converged_at;
    link = t.link_totals;
    framer_errors = t.framer_errors;
    cache_stats = Cache.stats cache;
    trace_events = Trace.count t.trace;
    fingerprint = Trace.fingerprint t.trace;
    trace = Trace.to_string t.trace }

let pp_report ppf r =
  let degraded =
    List.length
      (List.filter
         (fun o ->
           match o.freshness with
           | Rtr.Router_client.Expired | Rtr.Router_client.No_data -> true
           | Rtr.Router_client.Fresh | Rtr.Router_client.Stale -> false)
         r.outcomes)
  in
  let reconnects = List.fold_left (fun acc o -> acc + o.reconnects) 0 r.outcomes in
  Format.fprintf ppf
    "seed=%d policy=%s ok=%b routers=%d degraded=%d reconnects=%d framer_errors=%d events=%d \
     fp=%s"
    r.seed r.policy r.ok (List.length r.outcomes) degraded reconnects r.framer_errors r.events
    r.fingerprint
  [@@lint.test_only "test failure messages print the report"]
