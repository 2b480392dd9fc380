(* Live churn: the incremental engine (Rpki.Churn) replayed against
   from-scratch batch recomputation.

   The differential harness is the proof obligation for the whole
   incremental design: randomized and timeline-derived event sequences
   run through the engine, and at every checkpoint the maintained
   state — VRPs, announced pairs, Valid pairs, non-minimal maxLength
   VRPs, and the compressed ROA set — must be bit-identical to
   rebuilding everything from scratch in one batch (Validation.create,
   Dataset.Bgp_table + Mlcore.Minimal, Mlcore.Compress.run). Engine
   self_checks run after every single event, so under ARENA_SANITIZE=1
   (make check-sanitize) every arena audit and generation check fires
   mid-churn, not just at the end. A failing sequence is delta-debugged
   down to a minimal reproduction before being reported. *)

module Churn = Rpki.Churn
module Compress = Mlcore.Compress
module Minimal = Mlcore.Minimal
module Timeline = Dataset.Timeline
module Snapshot = Dataset.Snapshot
module Bgp_table = Dataset.Bgp_table
module V = Rpki.Validation
module Vrp = Rpki.Vrp
module Asnum = Rpki.Asnum
module Pfx = Netaddr.Pfx
module Sim = Netsim.Rtr_sim
module Fault = Netsim.Fault

let spf = Printf.sprintf
let a = Testutil.a
let pr = Pfx.of_string_exn
let v s m asn = Vrp.make_exn (pr s) ~max_len:m (a asn)

let pair_compare (p1, a1) (p2, a2) =
  let c = Pfx.compare p1 p2 in
  if c <> 0 then c else Asnum.compare a1 a2

let pair_equal x y = pair_compare x y = 0

let canon (pairs, vrps) =
  (List.sort_uniq pair_compare pairs, List.sort_uniq Vrp.compare vrps)

(* Replay events against a state at the set level — the model side of
   the round-trip law [apply (diff ~prev ~next) prev = next]. *)
let apply events (pairs, vrps) =
  canon
    (List.fold_left
       (fun (ps, vs) ev ->
         match ev with
         | Churn.Announce (p, a) -> ((p, a) :: ps, vs)
         | Churn.Withdraw (p, a) -> (List.filter (fun x -> pair_compare x (p, a) <> 0) ps, vs)
         | Churn.Add_vrp v -> (ps, v :: vs)
         | Churn.Remove_vrp v -> (ps, List.filter (fun x -> Vrp.compare x v <> 0) vs))
       (pairs, vrps) events)

let event = Alcotest.testable Churn.pp_event Churn.event_equal
let pair_t = Alcotest.(pair Testutil.prefix Testutil.asn)

(* --- randomized event sequences ------------------------------------ *)

(* Aligned prefixes from recursive splits of one v4 and one v6 base:
   parent/child/sibling relations are dense, so compression merges,
   covered-tuple elimination and minimality flips all fire constantly
   instead of almost never (as they would under uniform prefixes). *)
let rec expand q depth acc =
  if depth = 0 then q :: acc
  else
    match Pfx.split q with
    | None -> q :: acc
    | Some (l, r) -> q :: expand l (depth - 1) (expand r (depth - 1) acc)

let pool =
  Array.of_list (expand (pr "10.0.0.0/8") 4 [] @ expand (pr "2001:db8::/32") 3 [])

let asn_pool = [| 1; 2; 3 |]

let gen_event rng =
  let q = Rng.pick rng pool in
  let origin = a (Rng.pick rng asn_pool) in
  let vrp_of () =
    let max_len = min (Pfx.addr_bits q) (Pfx.length q + Rng.int rng 4) in
    Vrp.make_exn q ~max_len origin
  in
  match Rng.int rng 4 with
  | 0 -> Churn.Announce (q, origin)
  | 1 -> Churn.Withdraw (q, origin)
  | 2 -> Churn.Add_vrp (vrp_of ())
  | _ -> Churn.Remove_vrp (vrp_of ())

let gen_events seed n =
  let rng = Rng.create seed in
  List.init n (fun _ -> gen_event rng)

(* --- the batch oracles ---------------------------------------------- *)

(* What a cache without the engine recomputes from a state and its BGP
   table: the Valid pairs, the non-minimal maxLength VRPs and the
   compressed set. *)
let batch_recompute ~mode table ((pairs, vrps) : Timeline.state) =
  let db = V.create vrps in
  ( List.filter (fun (q, origin) -> V.authorized db q origin) pairs,
    List.filter (fun w -> Vrp.uses_max_len w && not (Minimal.is_minimal_vrp table w)) vrps,
    Compress.run ~mode vrps )

(* Compare the engine against a from-scratch recomputation of every
   maintained set. Returns a description of the first divergence. *)
let checkpoint ~mode t ((pairs, vrps) as state : Timeline.state) =
  let table = Bgp_table.create () in
  List.iter (fun (q, origin) -> Bgp_table.add table q origin) pairs;
  let batch_valid, batch_nonmin, batch = batch_recompute ~mode table state in
  if not (List.equal Vrp.equal (Churn.vrps t) vrps) then Some "vrps diverged"
  else if not (List.equal pair_equal (List.sort pair_compare (Churn.pairs t)) pairs)
  then Some "pairs diverged"
  else if
    not (List.equal pair_equal (List.sort pair_compare (Churn.valid_pairs t)) batch_valid)
  then Some "valid pairs diverged"
  else if not (List.equal Vrp.equal (Churn.non_minimal t) batch_nonmin) then
    Some "non-minimal set diverged"
  else if not (List.equal Vrp.equal (Churn.compressed t) batch) then
    Some "compressed diverged from batch"
  else None

(* Replay a sequence, self_checking after every event and running the
   full batch comparison every [k] events and at the end. *)
let run_sequence ?(k = 8) ~mode events =
  let t = Churn.create ~mode () in
  let rec go i state evs =
    match evs with
    | [] -> None
    | ev :: rest -> (
        let changed = Churn.apply t ev in
        let state' = apply [ ev ] state in
        let model_changed =
          not
            (List.equal pair_equal (fst state) (fst state')
            && List.equal Vrp.equal (snd state) (snd state'))
        in
        if changed <> model_changed then
          Some
            (spf "event %d (%s): apply returned %b, model changed %b" i
               (Churn.event_to_string ev) changed model_changed)
        else
          match Churn.self_check t with
          | Error e ->
              Some (spf "event %d (%s): self_check: %s" i (Churn.event_to_string ev) e)
          | Ok () ->
              let at_checkpoint =
                (i + 1) mod k = 0 || match rest with [] -> true | _ -> false
              in
              let failure =
                if at_checkpoint then
                  match checkpoint ~mode t state' with
                  | Some m ->
                      Some (spf "event %d (%s): %s" i (Churn.event_to_string ev) m)
                  | None -> None
                else None
              in
              (match failure with Some _ as f -> f | None -> go (i + 1) state' rest))
  in
  go 0 ([], []) events

(* Greedy delta debugging: drop one event at a time while the sequence
   still fails, to a fixpoint — the minimal reproduction the report
   prints. Every candidate is re-run from scratch, so the shrunk
   sequence really fails on its own, not as an artifact of state. *)
let shrink_failing check events =
  let fails evs = Option.is_some (check evs) in
  let rec pass evs i =
    if i >= List.length evs then evs
    else
      let cand = List.filteri (fun j _ -> j <> i) evs in
      if fails cand then pass cand i else pass evs (i + 1)
  in
  let rec fix evs =
    let evs' = pass evs 0 in
    if List.length evs' < List.length evs then fix evs' else evs'
  in
  fix events

let report_failure ~seed check events msg =
  let minimal = shrink_failing check events in
  let msg = Option.value ~default:msg (check minimal) in
  Alcotest.failf "seed %d: %s@.minimal failing sequence (%d events):@.%s" seed msg
    (List.length minimal)
    (String.concat "\n" (List.map Churn.event_to_string minimal))

let test_differential () =
  let strict = List.map (fun s -> (s, Compress.Strict)) [ 11; 23; 37; 59 ] in
  let paper = List.map (fun s -> (s, Compress.Paper)) [ 101; 103 ] in
  List.iter
    (fun (seed, mode) ->
      let check evs = run_sequence ~mode evs in
      let events = gen_events seed 120 in
      match check events with
      | None -> ()
      | Some msg -> report_failure ~seed check events msg)
    (strict @ paper)

(* --- timeline-derived churn ----------------------------------------- *)

let is_vrp_event = function
  | Churn.Add_vrp _ | Churn.Remove_vrp _ -> true
  | Churn.Announce _ | Churn.Withdraw _ -> false

(* The (origin AS, family) compression groups a VRP set spans. *)
let group_count vrps =
  let key (w : Vrp.t) = (Asnum.to_int w.Vrp.asn lsl 1) lor Pfx.afi_to_int (Pfx.afi w.Vrp.prefix) in
  List.length (List.sort_uniq Int.compare (List.map key vrps))

(* One entry per consecutive transition, labelled ["4/13->4/20"], ...;
   seven entries for the paper's eight weeks. *)
let rec event_stream = function
  | a :: (b :: _ as rest) ->
    ( a.Timeline.label ^ "->" ^ b.Timeline.label,
      Timeline.diff
        ~prev:(Timeline.state_of a.Timeline.snapshot)
        ~next:(Timeline.state_of b.Timeline.snapshot) )
    :: event_stream rest
  | _ -> []

(* The paper's eight-week series as an event stream: seed the engine
   with week one, replay each transition's diff, and require the
   engine to land exactly on the next snapshot at every [checkpoint] —
   VRPs, pairs, Valid pairs, the non-minimal set and a compressed set
   bit-identical to batch-compressing that snapshot.

   With [~vrp_churn:true] the input must also move VRPs every week, and
   each transition is held to a work witness against the batch
   recompute: fewer groups recompressed than the next week spans, and
   fewer words allocated. The eight compressed sets are then served
   over RTR to a mixed fleet, which must converge. *)
let timeline_differential ~scale ~seed ~vrp_churn () =
  let weeks = Array.of_list (Timeline.generate ~params:(Snapshot.scaled scale) ~seed ()) in
  let stream = event_stream (Array.to_list weeks) in
  Alcotest.(check int) "seven transitions" (Array.length weeks - 1) (List.length stream);
  let pairs0, vrps0 = Timeline.state_of weeks.(0).Timeline.snapshot in
  let t = Churn.create ~pairs:pairs0 ~vrps:vrps0 () in
  let first = Churn.compressed t in
  let script =
    List.mapi
      (fun i (label, events) ->
        Alcotest.(check bool) (label ^ " transition is not empty") true (events <> []);
        let recomputes = (Churn.stats t).Churn.group_recomputes in
        let compressed, incr_words =
          Testutil.allocated_words (fun () ->
              List.iter (fun ev -> ignore (Churn.apply t ev)) events;
              Churn.compressed t)
        in
        (match Churn.self_check t with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: self_check: %s" label e);
        let next = weeks.(i + 1).Timeline.snapshot in
        let ((_, vrps) as state) = Timeline.state_of next in
        (match checkpoint ~mode:Compress.Strict t state with
        | None -> ()
        | Some m -> Alcotest.failf "%s: %s" label m);
        if vrp_churn then begin
          Alcotest.(check bool)
            (label ^ " carries VRP events")
            true (List.exists is_vrp_event events);
          let recomputed = (Churn.stats t).Churn.group_recomputes - recomputes in
          let groups = group_count vrps in
          Alcotest.(check bool)
            (spf "%s: %d groups recompressed < %d groups" label recomputed groups)
            true (recomputed < groups);
          let _, batch_words =
            Testutil.allocated_words (fun () ->
                batch_recompute ~mode:Compress.Strict next.Snapshot.table state)
          in
          Alcotest.(check bool)
            (spf "%s: incremental %.0f words < batch %.0f words" label incr_words batch_words)
            true (incr_words < batch_words)
        end;
        compressed)
      stream
  in
  if vrp_churn then begin
    let script = first :: script in
    let config = { Sim.routers = 20; trace = false; script = Some script } in
    let r =
      Sim.run ~config ~mix:Fault.[ perfect; rechunking; delaying ] ~seed ~policy:Fault.perfect ()
    in
    Alcotest.(check bool)
      (Format.asprintf "churn-scripted RTR run: %a" Sim.pp_report r)
      true r.Sim.ok;
    Alcotest.(check int) "every week published" (List.length script) r.Sim.publishes
  end

(* --- engine semantics, pinned --------------------------------------- *)

let test_minimality_tracking () =
  let t = Churn.create () in
  let w = v "10.0.0.0/16" 17 1 in
  ignore (Churn.apply t (Churn.Add_vrp w));
  Alcotest.(check (list Testutil.vrp)) "unannounced maxLength VRP is non-minimal" [ w ]
    (Churn.non_minimal t);
  ignore (Churn.apply t (Churn.Announce (pr "10.0.0.0/16", a 1)));
  ignore (Churn.apply t (Churn.Announce (pr "10.0.0.0/17", a 1)));
  Alcotest.(check (list Testutil.vrp)) "half-announced: still non-minimal" [ w ]
    (Churn.non_minimal t);
  ignore (Churn.apply t (Churn.Announce (pr "10.0.128.0/17", a 1)));
  Alcotest.(check (list Testutil.vrp)) "fully announced: minimal" [] (Churn.non_minimal t);
  ignore (Churn.apply t (Churn.Withdraw (pr "10.0.128.0/17", a 1)));
  Alcotest.(check (list Testutil.vrp)) "withdrawal re-opens the attack surface" [ w ]
    (Churn.non_minimal t);
  ignore (Churn.apply t (Churn.Remove_vrp w));
  Alcotest.(check (list Testutil.vrp)) "removed VRP leaves the set" [] (Churn.non_minimal t)

let test_validity_tracking () =
  let t = Churn.create () in
  ignore (Churn.apply t (Churn.Announce (pr "10.0.0.0/16", a 1)));
  ignore (Churn.apply t (Churn.Announce (pr "10.0.0.0/18", a 1)));
  Alcotest.(check (list pair_t)) "no VRPs: nothing Valid" [] (Churn.valid_pairs t);
  ignore (Churn.apply t (Churn.Add_vrp (v "10.0.0.0/16" 17 1)));
  Alcotest.(check (list pair_t))
    "VRP add revalidates announced pairs under it"
    [ (pr "10.0.0.0/16", a 1) ]
    (Churn.valid_pairs t);
  ignore (Churn.apply t (Churn.Announce (pr "10.0.0.0/17", a 1)));
  Alcotest.(check (list pair_t))
    "announce within maxLength is Valid"
    [ (pr "10.0.0.0/16", a 1); (pr "10.0.0.0/17", a 1) ]
    (Churn.valid_pairs t);
  ignore (Churn.apply t (Churn.Remove_vrp (v "10.0.0.0/16" 17 1)));
  Alcotest.(check (list pair_t)) "VRP removal invalidates" [] (Churn.valid_pairs t)

(* Satellite regression: a no-op event burst must cause zero group
   recomputes and zero scratch-store re-sorts — the dirty-flag path
   ([Vrp_store.sort_count] is the witness) — and must not perturb the
   compressed output. *)
let test_noop_events_zero_resorts () =
  let vrps = [ v "10.0.0.0/16" 17 1; v "10.0.0.0/17" 17 1; v "2001:db8::/33" 34 2 ] in
  let pairs = [ (pr "10.0.0.0/16", a 1); (pr "2001:db8::/33", a 2) ] in
  let t = Churn.create ~pairs ~vrps () in
  let before = Churn.compressed t in
  let s0 = Churn.stats t in
  let noops =
    [ Churn.Announce (pr "10.0.0.0/16", a 1);
      Churn.Add_vrp (v "10.0.0.0/17" 17 1);
      Churn.Withdraw (pr "10.9.0.0/24", a 7);
      Churn.Remove_vrp (v "10.9.0.0/24" 24 7) ]
  in
  List.iter
    (fun ev ->
      Alcotest.(check bool) (Churn.event_to_string ev ^ " is a no-op") false
        (Churn.apply t ev))
    noops;
  Churn.flush t;
  let s1 = Churn.stats t in
  Alcotest.(check int) "no group recomputes" s0.Churn.group_recomputes s1.Churn.group_recomputes;
  Alcotest.(check int) "no scratch re-sorts" s0.Churn.store_sorts s1.Churn.store_sorts;
  Alcotest.(check int) "all counted as no-ops" (s0.Churn.noops + 4) s1.Churn.noops;
  Alcotest.(check (list Testutil.vrp)) "compressed unchanged" before (Churn.compressed t)

(* Every prefix [w] authorizes, announced by [w]'s origin: the pairs
   that make a maxLength VRP minimal. *)
let cone (w : Vrp.t) =
  let rec go q acc =
    let acc = (q, w.Vrp.asn) :: acc in
    if Pfx.length q >= w.Vrp.max_len then acc
    else match Pfx.split q with Some (l, r) -> go r (go l acc) | None -> acc
  in
  go w.Vrp.prefix []

(* [create ~pairs ~vrps] seeds in bulk; it must reach the state, and
   the stats, of replaying [Add_vrp]s then [Announce]s on an empty
   engine. Inputs come from the dense pool, out of order and with
   repeats, and some VRPs get their whole cone announced, so
   duplicates, Valid pairs and both minimality verdicts all occur. *)
let gen_seed =
  let open QCheck2.Gen in
  let pick arr = map (Array.get arr) (int_bound (Array.length arr - 1)) in
  let with_repeats g =
    let* l = list_size (int_range 0 40) g in
    let* k = int_bound (List.length l) in
    return (l @ List.filteri (fun i _ -> i < k) (List.rev l))
  in
  let announced = map2 (fun q asn -> (q, a asn)) (pick pool) (pick asn_pool) in
  let vrp =
    let* q = pick pool in
    let* asn = pick asn_pool in
    let* extra = int_bound 3 in
    return (Vrp.make_exn q ~max_len:(min (Pfx.addr_bits q) (Pfx.length q + extra)) (a asn))
  in
  let* vrps = with_repeats vrp in
  let* pairs = with_repeats announced in
  let* covered = int_bound (List.length vrps) in
  return (pairs @ List.concat_map cone (List.filteri (fun i _ -> i < covered) vrps), vrps)

let prop_create_equals_replay =
  QCheck2.Test.make ~name:"create ~pairs ~vrps = replay through apply" ~count:300 gen_seed
    (fun (pairs, vrps) ->
      let bulk = Churn.create ~pairs ~vrps () in
      let replay = Churn.create () in
      List.iter (fun w -> ignore (Churn.apply replay (Churn.Add_vrp w))) vrps;
      List.iter (fun (q, origin) -> ignore (Churn.apply replay (Churn.Announce (q, origin)))) pairs;
      let same_stats () =
        let s = Churn.stats bulk and r = Churn.stats replay in
        s.Churn.noops = r.Churn.noops
        && s.Churn.group_recomputes = r.Churn.group_recomputes
        && s.Churn.store_sorts = r.Churn.store_sorts
      in
      let checked t =
        match Churn.self_check t with Ok () -> true | Error e -> QCheck2.Test.fail_report e
      in
      (* stats are compared before the first flush and after it *)
      checked bulk && checked replay && same_stats ()
      && List.equal Vrp.equal (Churn.vrps bulk) (Churn.vrps replay)
      && List.equal pair_equal (Churn.pairs bulk) (Churn.pairs replay)
      && List.equal pair_equal (Churn.valid_pairs bulk) (Churn.valid_pairs replay)
      && List.equal Vrp.equal (Churn.non_minimal bulk) (Churn.non_minimal replay)
      && List.equal Vrp.equal (Churn.compressed bulk) (Churn.compressed replay)
      && same_stats ())

(* --- timeline diffing ------------------------------------------------ *)

(* Golden fixture: two adjacent states, both families, every event
   kind — the exact stream [diff] must emit, in its documented order
   (Remove_vrp, Withdraw, Add_vrp, Announce; canonical within each
   block). *)
let test_golden_event_stream () =
  let state_a : Timeline.state =
    ( [ (pr "10.0.0.0/16", a 1); (pr "10.1.0.0/24", a 2); (pr "2001:db8::/48", a 3) ],
      [ v "10.0.0.0/16" 18 1; v "2001:db8::/32" 40 3 ] )
  in
  let state_b : Timeline.state =
    ( [ (pr "10.0.0.0/16", a 1); (pr "10.2.0.0/24", a 2); (pr "2001:db8::/48", a 3);
        (pr "2001:db8:1::/48", a 3) ],
      [ v "10.3.0.0/24" 24 2; v "10.0.0.0/16" 18 1 ] )
  in
  let expected =
    [ Churn.Remove_vrp (v "2001:db8::/32" 40 3);
      Churn.Withdraw (pr "10.1.0.0/24", a 2);
      Churn.Add_vrp (v "10.3.0.0/24" 24 2);
      Churn.Announce (pr "10.2.0.0/24", a 2);
      Churn.Announce (pr "2001:db8:1::/48", a 3) ]
  in
  Alcotest.(check (list event)) "golden stream" expected
    (Timeline.diff ~prev:state_a ~next:state_b);
  Alcotest.(check (list event)) "self-diff is empty" []
    (Timeline.diff ~prev:state_a ~next:state_a);
  let pairs, vrps = apply expected (canon state_a) in
  let pairs_b, vrps_b = canon state_b in
  Alcotest.(check (list pair_t)) "round-trip pairs" pairs_b pairs;
  Alcotest.(check (list Testutil.vrp)) "round-trip vrps" vrps_b vrps

(* [diff] on canonical inputs is one merge walk: it allocates the
   events it emits and nothing per pair it walks past. A sort-dedup of
   either side would cost O(n log n) words over the ~7.6k pairs. *)
let test_diff_allocation () =
  let weeks = Timeline.generate ~params:(Snapshot.scaled 0.01) ~seed:42 () in
  let prev = Timeline.state_of (List.nth weeks 0).Timeline.snapshot in
  let next = Timeline.state_of (List.nth weeks 1).Timeline.snapshot in
  let events, words = Testutil.allocated_words (fun () -> Timeline.diff ~prev ~next) in
  let n = List.length events in
  Alcotest.(check bool) "the transition has events" true (n > 0);
  Alcotest.(check bool)
    (spf "%.0f words for %d events over %d pairs: at most 32 per event" words n
       (List.length (fst next)))
    true
    (words <= 32. *. float_of_int n)

let gen_state =
  QCheck2.Gen.pair
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 40)
       (QCheck2.Gen.pair Testutil.gen_clustered_prefix Testutil.gen_small_asn))
    Testutil.gen_vrp_list

let prop_diff_apply_roundtrip =
  QCheck2.Test.make ~name:"apply (diff prev next) prev = next" ~count:300
    (QCheck2.Gen.pair gen_state gen_state)
    (fun (sa, sb) ->
      let ca = canon sa and cb = canon sb in
      let pairs, vrps = apply (Timeline.diff ~prev:ca ~next:cb) ca in
      List.equal pair_equal pairs (fst cb) && List.equal Vrp.equal vrps (snd cb))

let prop_diff_reflexive =
  QCheck2.Test.make ~name:"diff s s = [] (inputs need not be canonical)" ~count:300
    gen_state
    (fun s ->
      let shuffled = (List.rev (fst s) @ fst s, List.rev (snd s) @ snd s) in
      match Timeline.diff ~prev:shuffled ~next:s with [] -> true | _ -> false)

let () =
  Alcotest.run "rpki.churn"
    [ ( "differential",
        [ Alcotest.test_case "randomized events vs one batch" `Quick test_differential;
          Alcotest.test_case "timeline event stream vs batch" `Quick
            (timeline_differential ~scale:0.001 ~seed:5 ~vrp_churn:false);
          Alcotest.test_case "timeline with VRP churn vs batch" `Quick
            (timeline_differential ~scale:0.01 ~seed:42 ~vrp_churn:true) ] );
      ( "engine",
        [ Alcotest.test_case "minimality tracking" `Quick test_minimality_tracking;
          Alcotest.test_case "validity tracking" `Quick test_validity_tracking;
          Alcotest.test_case "no-op events: zero recomputes, zero re-sorts" `Quick
            test_noop_events_zero_resorts;
          QCheck_alcotest.to_alcotest prop_create_equals_replay ] );
      ( "timeline-diff",
        Alcotest.test_case "golden event stream" `Quick test_golden_event_stream
        :: Alcotest.test_case "diff allocates per event, not per pair" `Quick
             test_diff_allocation
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_diff_apply_roundtrip; prop_diff_reflexive ] ) ]
