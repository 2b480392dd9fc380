(* The fault-injection simulator: virtual clock semantics, link fault
   policies, and the headline acceptance sweep — under every fault
   policy, every router either converges on the cache's final VRP set
   or lands in an explicit degraded state, deterministically. *)

module Clock = struct
  include Netsim.Clock

  (* Run every event due by [time], then leave the clock there. *)
  let run_until c time =
    while next_time c <= time && run_next c do
      ()
    done;
    advance c time
end

module Link = Netsim.Link
module Sim = Netsim.Rtr_sim

(* The fault policies beyond the library's three: each misbehaviour
   alone, then all at once. [all] is the sweep matrix, perfect first. *)
module Fault = struct
  include Netsim.Fault

  let reordering =
    { perfect with
      name = "reordering";
      fifo = false;
      delay_min = 1;
      delay_max = 30;
      jitter = 120;
      chunk_min = 8;
      chunk_max = 128 }

  let duplicating =
    { perfect with name = "duplicating"; duplicate = 0.15; chunk_min = 16; chunk_max = 256 }

  let truncating =
    { perfect with name = "truncating"; truncate = 0.05; chunk_min = 16; chunk_max = 256 }

  let corrupting =
    { perfect with name = "corrupting"; corrupt = 0.04; chunk_min = 32; chunk_max = 512 }

  let lossy = { perfect with name = "lossy"; drop = 0.05; chunk_min = 16; chunk_max = 256 }

  let flaky = { perfect with name = "flaky"; conn_drop = 0.03; chunk_min = 32; chunk_max = 512 }

  let chaos =
    { name = "chaos";
      delay_min = 1;
      delay_max = 40;
      jitter = 80;
      fifo = false;
      chunk_min = 8;
      chunk_max = 192;
      drop = 0.02;
      duplicate = 0.02;
      truncate = 0.02;
      corrupt = 0.02;
      conn_drop = 0.015 }

  let all =
    [ perfect; rechunking; delaying; reordering; duplicating; truncating; corrupting; lossy;
      flaky; chaos ]
end

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
      Clock.at c ~time:(Clock.now c + 5) (fun () -> got := `B :: !got));
  Clock.run_until c 20;
  Alcotest.(check int) "both ran" 2 (List.length !got);
  Alcotest.(check bool) "in order" true (List.rev !got = [ `A; `B ])

(* --- clock vs a list model ---------------------------------------- *)

(* Random programs of clock operations, run against the clock and
   against a model kept here: a list of pending events ordered by
   (time, sequence number). An event's time is relative to the clock
   when it is scheduled — in the past (clamped to now), a few ms ahead
   (so equal times are common), on either side of the calendar
   window's end, far in the future, or through [after] with a possibly
   negative delay — and an event may schedule a child when it runs.
   Besides running events, a program may move the clock a little, or
   past every pending event. After every operation the two must agree
   on [now], [next_time], [executed] and the order events ran in. *)
type due = Past of int | Soon of int | Edge of int | Far of int | After of int
type ev = { id : int; due : due; child : ev option }
type op = Sched of ev | Run_next | Run_until of int | Advance of int | Advance_past

let far = 1_000_000

let gen_due =
  let open QCheck2.Gen in
  oneof
    [ map (fun k -> Past k) (int_range 1 50);
      map (fun k -> Soon k) (int_range 0 3);
      map (fun k -> Edge k) (int_range (-1) 1);
      map (fun k -> Far k) (int_range 0 3);
      map (fun d -> After d) (int_range (-3) 10) ]

let gen_ev =
  let open QCheck2.Gen in
  let* due = gen_due in
  let* child = opt ~ratio:0.3 (map (fun due -> { id = 0; due; child = None }) gen_due) in
  return { id = 0; due; child }

let gen_op =
  let open QCheck2.Gen in
  frequency
    [ (5, map (fun e -> Sched e) gen_ev);
      (3, return Run_next);
      (1, map (fun d -> Run_until d) (int_range (-5) 40));
      (1, return (Run_until far));
      (1, map (fun d -> Advance d) (int_range (-5) 20));
      (1, return Advance_past) ]

(* Give every event (children included) a distinct id. *)
let number ops =
  let next = ref 0 in
  let rec ev e =
    incr next;
    let id = !next in
    { e with id; child = Option.map ev e.child }
  in
  List.map
    (function
      | Sched e -> Sched (ev e) | (Run_next | Run_until _ | Advance _ | Advance_past) as op -> op)
    ops

(* [Edge k] is due at [now + window + k]: at the window's end once an
   event has run at [now], since the window starts at the time of the
   last event run. *)
let due_time ~now = function
  | Past k -> now - k
  | Soon k -> now + k
  | Edge k -> now + Clock.window + k
  | Far k -> now + far + k
  | After d -> now + max 0 d

type model = {
  mutable m_now : int;
  mutable m_seq : int;
  mutable m_q : (int * int * ev) list; (* ascending (time, seq) *)
  mutable m_executed : int;
  mutable m_log : int list;
}

let model_sched m e =
  let time = max m.m_now (due_time ~now:m.m_now e.due) in
  m.m_seq <- m.m_seq + 1;
  let seq = m.m_seq in
  let rec ins = function
    | ((t, s, _) as x) :: rest when t < time || (t = time && s < seq) -> x :: ins rest
    | l -> (time, seq, e) :: l
  in
  m.m_q <- ins m.m_q

let model_run_next m =
  match m.m_q with
  | [] -> false
  | (time, _, e) :: rest ->
    m.m_q <- rest;
    if time > m.m_now then m.m_now <- time;
    m.m_executed <- m.m_executed + 1;
    m.m_log <- e.id :: m.m_log;
    Option.iter (model_sched m) e.child;
    true

let rec model_run_until m time =
  match m.m_q with
  | (t, _, _) :: _ when t <= time ->
    ignore (model_run_next m);
    model_run_until m time
  | _ -> m.m_now <- max m.m_now time

let rec clock_sched c log e =
  let f () =
    log := e.id :: !log;
    Option.iter (clock_sched c log) e.child
  in
  match e.due with
  | After d -> Clock.at c ~time:(Clock.now c + max 0 d) f
  | Past _ | Soon _ | Edge _ | Far _ -> Clock.at c ~time:(due_time ~now:(Clock.now c) e.due) f

let agrees_with_model ops =
  let c = Clock.create () and log = ref [] in
  let m = { m_now = 0; m_seq = 0; m_q = []; m_executed = 0; m_log = [] } in
  List.iteri
    (fun i op ->
      (match op with
       | Sched e ->
         clock_sched c log e;
         model_sched m e
       | Run_next ->
         let ran = Clock.run_next c in
         if ran <> model_run_next m then QCheck2.Test.fail_reportf "op %d: run_next result" i
       | Run_until d ->
         let time = Clock.now c + d in
         Clock.run_until c time;
         model_run_until m time
       | Advance d ->
         let time = Clock.now c + d in
         Clock.advance c time;
         m.m_now <- max m.m_now time
       | Advance_past ->
         let time = 1 + List.fold_left (fun acc (t, _, _) -> max acc t) m.m_now m.m_q in
         Clock.advance c time;
         m.m_now <- time);
      let next = match m.m_q with [] -> max_int | (t, _, _) :: _ -> t in
      if Clock.now c <> m.m_now then
        QCheck2.Test.fail_reportf "op %d: now %d, model %d" i (Clock.now c) m.m_now;
      if Clock.next_time c <> next then QCheck2.Test.fail_reportf "op %d: next_time" i;
      if Clock.executed c <> m.m_executed then
        QCheck2.Test.fail_reportf "op %d: executed %d, model %d" i (Clock.executed c)
          m.m_executed;
      if not (List.equal Int.equal !log m.m_log) then
        QCheck2.Test.fail_reportf "op %d: execution order differs from the model" i)
    ops;
  true

let prop_clock_model =
  QCheck2.Test.make ~name:"clock agrees with a (time, seq)-ordered list model" ~count:500
    QCheck2.Gen.(list_size (int_range 0 120) gen_op)
    (fun ops -> agrees_with_model (number ops))

let test_clock_model_large () =
  (* Past the initial capacity: 12,000 events pending at once, then
     drained (children included). *)
  let evs =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 19 |]) (QCheck2.Gen.list_repeat 12_000 gen_ev)
  in
  let ops = number (List.map (fun e -> Sched e) evs @ [ Run_until (2 * far) ]) in
  Alcotest.(check bool) "agrees with the model" true (agrees_with_model ops)

(* --- the wheel vs a list model ------------------------------------ *)

(* Random programs of wheel operations against a model: a list of
   pending (bucket, sequence number, entry) ordered by (bucket, seq),
   and the first bucket not yet drained. An entry lands in the bucket
   of its due time, clamped to now and to that first undrained bucket;
   a drain takes every due bucket in order and fires its entries in
   scheduling order, each of which may schedule a child — never into
   the bucket being drained. Dues are those of the clock model:
   before now, soon, on either side of the window's end, far out. Only
   a [W_next_due] reads [next_due], so a probe that scanned ahead
   stays cached while earlier entries arrive. At the end of every
   program the clock passes everything and the wheel drains. *)
type wop = W_sched of ev | W_next_due | W_tick of int | W_drain

type wmodel = {
  mutable w_now : int;
  mutable w_cursor : int;
  mutable w_seq : int;
  mutable w_q : (int * int * ev) list; (* ascending (bucket, seq) *)
  mutable w_log : int list;
}

let gen_wop =
  let open QCheck2.Gen in
  frequency
    [ (5, map (fun e -> W_sched e) gen_ev);
      (2, return W_next_due);
      (2, map (fun d -> W_tick d) (int_range 0 8));
      (1, map (fun d -> W_tick d) (int_range 0 (2 * Clock.window)));
      (2, return W_drain) ]

(* Give every entry (children included) a distinct id. *)
let number_wops ops =
  List.map2
    (fun op numbered ->
      match op, numbered with
      | W_sched _, Sched e -> W_sched e
      | op, _ -> op)
    ops
    (number (List.map (function W_sched e -> Sched e | _ -> Run_next) ops))

let wmodel_sched m e =
  let bucket = max m.w_cursor (max m.w_now (due_time ~now:m.w_now e.due)) in
  m.w_seq <- m.w_seq + 1;
  let seq = m.w_seq in
  let rec ins = function
    | ((b, s, _) as x) :: rest when b < bucket || (b = bucket && s < seq) -> x :: ins rest
    | l -> (bucket, seq, e) :: l
  in
  m.w_q <- ins m.w_q

let rec wmodel_drain m =
  match m.w_q with
  | (b, _, _) :: _ when b <= m.w_now ->
    let batch = List.filter (fun (b', _, _) -> b' = b) m.w_q in
    m.w_q <- List.filter (fun (b', _, _) -> b' <> b) m.w_q;
    m.w_cursor <- b + 1;
    List.iter
      (fun (_, _, e) ->
        m.w_log <- e.id :: m.w_log;
        Option.iter (wmodel_sched m) e.child)
      batch;
    wmodel_drain m
  | _ -> ()

let wheel_agrees_with_model ops =
  let c = Clock.create () in
  let w = Clock.Wheel.create c in
  let entries = Hashtbl.create 64 and log = ref [] in
  let sched e =
    Hashtbl.replace entries e.id e;
    Clock.Wheel.schedule w ~time:(due_time ~now:(Clock.now c) e.due) e.id
  in
  let fire id =
    log := id :: !log;
    Option.iter sched (Hashtbl.find entries id).child
  in
  let m = { w_now = 0; w_cursor = 0; w_seq = 0; w_q = []; w_log = [] } in
  let ops = ops @ [ W_tick (3 * far); W_drain; W_next_due ] in
  List.iteri
    (fun i op ->
      (match op with
       | W_sched e ->
         sched e;
         wmodel_sched m e
       | W_next_due ->
         let want = match m.w_q with [] -> max_int | (b, _, _) :: _ -> b in
         let got = Clock.Wheel.next_due w in
         if got <> want then QCheck2.Test.fail_reportf "op %d: next_due %d, model %d" i got want
       | W_tick d ->
         Clock.advance c (Clock.now c + d);
         m.w_now <- Clock.now c
       | W_drain ->
         Clock.Wheel.advance w fire;
         wmodel_drain m);
      if not (List.equal Int.equal !log m.w_log) then
        QCheck2.Test.fail_reportf "op %d: firing order differs from the model" i)
    ops;
  true

let prop_wheel_model =
  QCheck2.Test.make ~name:"wheel agrees with a (bucket, seq)-ordered list model" ~count:500
    QCheck2.Gen.(list_size (int_range 0 120) gen_wop)
    (fun ops -> wheel_agrees_with_model (number_wops ops))

(* An entry a billion ms out costs the clock or the wheel a slot, not
   a bucket per ms: the live words of both grow by a constant. *)
let test_far_future_memory () =
  let c = Clock.create () in
  let w = Clock.Wheel.create c in
  let before = Testutil.live_words (c, w) in
  let fired = ref 0 in
  let due = Clock.now c + 1_000_000_000 in
  Clock.at c ~time:due (fun () -> incr fired);
  Clock.Wheel.schedule w ~time:due 7;
  let grown = Testutil.live_words (c, w) - before in
  Alcotest.(check bool) (Printf.sprintf "grows by %d words" grown) true (grown < 64);
  Alcotest.(check int) "next_time" due (Clock.next_time c);
  Alcotest.(check int) "next_due" due (Clock.Wheel.next_due w);
  Alcotest.(check bool) "runs" true (Clock.run_next c);
  Alcotest.(check int) "at its time" due (Clock.now c);
  Clock.Wheel.advance w (fun id -> fired := !fired + id);
  Alcotest.(check int) "both fired" 8 !fired

(* Once the slot and overflow columns have grown to the load, an
   insert and a pop allocate nothing: [at] + [run_next] on the clock
   (delays reaching past the window), [schedule] + [advance] on the
   wheel. Both start with their columns grown past every later load
   (entries parked in the overflow). Native code only, as for the
   other allocation witnesses. *)
let test_steady_state_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 20_000 and span = 12_000 in
    let c = Clock.create () in
    let w = Clock.Wheel.create c in
    let f () = () and ran = ref 0 in
    let fire id = ran := !ran + id in
    (* 1,000 events stay pending throughout. *)
    for i = 1 to 1_000 do
      Clock.at c ~time:(Clock.window + (i * 13)) f
    done;
    (* One wheel entry a ms, each at most [span] ms out. *)
    for i = 0 to span do
      Clock.Wheel.schedule w ~time:(Clock.window + i) 0
    done;
    Clock.advance c (Clock.window + span);
    Clock.Wheel.advance w fire;
    let clock_steps () =
      for i = 1 to n do
        Clock.at c ~time:(Clock.now c + (i * 7919 mod span)) f;
        ignore (Clock.run_next c)
      done
    in
    let wheel_steps () =
      for i = 1 to n do
        Clock.Wheel.schedule w ~time:(Clock.now c + (i * 7919 mod span)) 1;
        Clock.advance c (Clock.now c + 1);
        Clock.Wheel.advance w fire
      done
    in
    let overhead = snd (Testutil.allocated_words (fun () -> ())) in
    let words f = snd (Testutil.allocated_words f) -. overhead in
    Alcotest.(check (float 0.)) "at + run_next: words" 0. (words clock_steps);
    Alcotest.(check (float 0.)) "schedule + advance: words" 0. (words wheel_steps);
    Alcotest.(check bool) "the wheel fired" true (!ran > 0)
  end

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

(* Every delivery, [conn_drop] included, and the link's stats after
   [write] runs on a fresh link. *)
let deliveries ~policy ~seed write =
  let clock = Clock.create () in
  let got = ref [] in
  let link =
    Link.create ~clock ~rng:(Rng.create seed) ~policy
      ~deliver:(fun ~tainted chunk -> got := `Chunk (tainted, chunk) :: !got)
      ~conn_drop:(fun () -> got := `Conn_drop :: !got)
  in
  write link;
  Clock.run_until clock 1_000_000;
  (List.rev !got, Link.stats link)

(* [send_segments] chunks the concatenation: for any split of each
   write, under every policy, it delivers the chunks [send] delivers,
   with the same taint, in the same order, and leaves the same stats. *)
let prop_segments_like_concatenation =
  let gen =
    QCheck2.Gen.(
      let write =
        let* payload = string_size ~gen:printable (int_range 0 1_500) in
        let* cuts = list_size (int_bound 6) (int_bound (String.length payload)) in
        return (payload, List.sort Int.compare cuts)
      in
      let* writes = list_size (int_range 1 4) write in
      let* policy = oneofl Fault.all in
      let* seed = int_bound 1_000 in
      return (writes, policy, seed))
  in
  let split (payload, cuts) =
    let rec go from = function
      | [] -> [ String.sub payload from (String.length payload - from) ]
      | c :: rest -> String.sub payload from (c - from) :: go c rest
    in
    go 0 cuts
  in
  let print (writes, (policy : Fault.t), seed) =
    Printf.sprintf "policy %s, seed %d, writes [%s]" policy.Fault.name seed
      (String.concat "; " (List.map (fun w -> String.concat "|" (split w)) writes))
  in
  QCheck2.Test.make ~name:"send_segments delivers what send of the concatenation does" ~count:300
    ~print gen (fun (writes, policy, seed) ->
      let got_whole, stats_whole =
        deliveries ~policy ~seed (fun l -> List.iter (fun (p, _) -> Link.send l p) writes)
      in
      let got_split, stats_split =
        deliveries ~policy ~seed (fun l ->
            List.iter (fun w -> Link.send_segments l (split w)) writes)
      in
      List.length got_whole = List.length got_split
      && List.for_all2
           (fun a b ->
             match a, b with
             | `Chunk (ta, ca), `Chunk (tb, cb) -> Bool.equal ta tb && String.equal ca cb
             | `Conn_drop, `Conn_drop -> true
             | (`Chunk _ | `Conn_drop), _ -> false)
           got_whole got_split
      && stats_whole = stats_split)

(* A chunk that covers exactly one whole segment is that segment, not
   a copy: on a perfect link (64 KiB chunks) of 64 KiB segments, and
   on 16-byte chunks, where the others slice and straddle. *)
let test_whole_segments_shared () =
  let chunks policy segments =
    fst (deliveries ~policy ~seed:3 (fun l -> Link.send_segments l segments))
    |> List.map (function `Chunk (_, c) -> c | `Conn_drop -> Alcotest.fail "connection drop")
  in
  let bigs = List.init 3 (fun i -> String.make 65536 (Char.chr (Char.code 'a' + i))) in
  let got = chunks Fault.perfect (List.concat_map (fun s -> [ s; "" ]) bigs) in
  Alcotest.(check int) "three chunks" 3 (List.length got);
  List.iter2
    (fun seg c -> Alcotest.(check bool) "perfect: the segment itself" true (seg == c))
    bigs got;
  let a = String.make 16 'a' and b = String.make 16 'b' and e = String.make 16 'e' in
  let c = String.init 40 (fun i -> Char.chr (Char.code 'A' + i)) and d = "01234567" in
  let got =
    chunks { Fault.perfect with Fault.chunk_min = 16; chunk_max = 16 } [ a; ""; b; c; d; e ]
  in
  Alcotest.(check (list string)) "16-byte chunks"
    [ a; b; String.sub c 0 16; String.sub c 16 16; String.sub c 32 8 ^ d; e ]
    got;
  List.iter
    (fun (seg, i) ->
      Alcotest.(check bool)
        (Printf.sprintf "chunk %d is its segment" i)
        true
        (seg == List.nth got i))
    [ (a, 0); (b, 1); (e, 5) ]

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

(* Pinned replays: a run compared only with itself would pass an event
   queue that reordered same-time events, so the fingerprint and event
   count of seed 42 under every policy, and of one traced mixed fleet,
   are pinned. Any change to the event order, an RNG stream or a
   delivered byte moves them. *)
let pinned_seed_42 =
  [ (Fault.perfect, "b898deb38b5bf745", 332);
    (Fault.rechunking, "e761c1ddd84ea6f4", 1013);
    (Fault.delaying, "fea718042a851356", 230);
    (Fault.reordering, "39de016800def81b", 378);
    (Fault.duplicating, "f54accde03fe0f3d", 446);
    (Fault.truncating, "5430e7e3d6875613", 399);
    (Fault.corrupting, "11b89c80717a9a47", 361);
    (Fault.lossy, "2dd4809d5516b3fe", 295);
    (Fault.flaky, "82c1c38835190f44", 363);
    (Fault.chaos, "f97c3457da5a4496", 287) ]

let test_pinned_replays () =
  let check name (r : Sim.report) fingerprint events =
    Alcotest.(check string) (name ^ " fingerprint") fingerprint r.Sim.fingerprint;
    Alcotest.(check int) (name ^ " events") events r.Sim.events
  in
  Alcotest.(check int) "every policy pinned" (List.length Fault.all) (List.length pinned_seed_42);
  List.iter
    (fun (policy, fingerprint, events) ->
      check policy.Fault.name (Sim.run ~seed:42 ~policy ()) fingerprint events)
    pinned_seed_42;
  let config = { Sim.default_config with Sim.routers = 300 } in
  let fleet =
    Sim.run ~config ~mix:Fault.[ perfect; rechunking; delaying; chaos; lossy ] ~seed:7
      ~policy:Fault.perfect ()
  in
  check "300-session mixed fleet" fleet "ec487c462386016f" 31_012

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
          Alcotest.test_case "cascading events" `Quick test_clock_cascading;
          Alcotest.test_case "12,000 pending agree with the model" `Quick test_clock_model_large;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_clock_model;
          Alcotest.test_case "a billion ms out costs a constant" `Quick test_far_future_memory;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_steady_state_allocation ] );
      ("wheel", [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_wheel_model ]);
      ( "link",
        [ Alcotest.test_case "perfect delivery" `Quick test_link_perfect_delivers;
          Alcotest.test_case "rechunking is stream-transparent" `Quick
            test_link_rechunk_preserves_stream;
          Alcotest.test_case "close suppresses in-flight" `Quick test_link_closed_suppresses;
          Alcotest.test_case "fault accounting" `Quick test_link_fault_accounting;
          Alcotest.test_case "whole segments are shared" `Quick test_whole_segments_shared;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_segments_like_concatenation ] );
      ( "sim",
        [ Alcotest.test_case "every policy, one seed" `Quick test_policy_smoke;
          Alcotest.test_case "benign links: strict" `Quick test_perfect_strict;
          Alcotest.test_case "serial wrap crossed" `Quick test_serial_wrap_crossed;
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "pinned replay fingerprints" `Quick test_pinned_replays;
          Alcotest.test_case "encode once across 1,000 sessions" `Quick test_fanout_encode_once;
          Alcotest.test_case "sweep (sampled)" `Quick test_sweep_small;
          Alcotest.test_case "sweep (500 seeds, all policies)" `Slow test_sweep_full ] ) ]
