module Bgp_table = Dataset.Bgp_table
module Snapshot = Dataset.Snapshot
module Timeline = Dataset.Timeline
module Pfx = Netaddr.Pfx

let p = Testutil.p4
let a = Testutil.a

(* --- Rng --- *)

let test_rng_determinism () =
  let r1 = Rng.create 42 and r2 = Rng.create 42 in
  let s1 = List.init 20 (fun _ -> Rng.int64 r1) in
  let s2 = List.init 20 (fun _ -> Rng.int64 r2) in
  Alcotest.(check bool) "same streams" true (s1 = s2);
  let r3 = Rng.create 43 in
  Alcotest.(check bool) "different seed" true (Rng.int64 r3 <> List.hd s1)

let test_rng_split_stability () =
  let parent1 = Rng.create 1 in
  let child_a = Rng.split parent1 "a" in
  let first_a = Rng.int64 child_a in
  (* Drawing from the parent must not shift the child stream. *)
  let parent2 = Rng.create 1 in
  ignore (Rng.int64 parent2);
  ignore (Rng.int64 parent2);
  let child_a2 = Rng.split parent2 "a" in
  Alcotest.(check int64) "stable under parent use" first_a (Rng.int64 child_a2);
  let child_b = Rng.split parent1 "b" in
  Alcotest.(check bool) "labels differ" true (Rng.int64 child_b <> first_a)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds: %f" f
  done;
  match Rng.int r 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bound accepted"

let test_rng_distributions () =
  let r = Rng.create 3 in
  (* bernoulli 0.3 should land near 0.3 over many draws. *)
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  Alcotest.(check bool) "bernoulli mean" true (!hits > 2_700 && !hits < 3_300);
  (* weighted picks respect weights. *)
  let w = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.weighted r [ (3, true); (1, false) ] then incr w
  done;
  Alcotest.(check bool) "weighted 3:1" true (!w > 7_200 && !w < 7_800);
  (* geometric mean for p=0.5 is 1. *)
  let sum = ref 0 in
  for _ = 1 to 10_000 do
    sum := !sum + Rng.geometric r ~p:0.5
  done;
  Alcotest.(check bool) "geometric mean" true (!sum > 9_000 && !sum < 11_000)

(* Known answers: the SplitMix64 streams every synthetic corpus and
   every simulated fault derives from, pinned so a change to the
   generator's state handling cannot shift them unnoticed. *)
let test_rng_known_answers () =
  let hex = Printf.sprintf "%016Lx" in
  let r = Rng.create 42 in
  List.iter
    (fun want -> Alcotest.(check string) "Rng.create 42" want (hex (Rng.int64 r)))
    [ "989b3f130a063869"; "290db4bf2570ded7"; "2a990be63a01b2d5" ];
  Alcotest.(check string) "split \"x\"" "74bdae13eec2be6f"
    (hex (Rng.int64 (Rng.split (Rng.create 42) "x")))

(* The simulator draws up to six numbers per link chunk; a draw that
   boxes its 64-bit state costs words on every one. [Rng.float]'s
   result is a float, boxed (2 words) when it crosses the module
   boundary uninlined, as it does in this build; the draw allocates
   nothing else. *)
let test_rng_draws_allocate_nothing () =
  let n = 10_000 in
  let r = Rng.create 5 in
  let hits = ref 0 in
  let overhead = snd (Testutil.allocated_words (fun () -> ())) in
  let per_draw f = (snd (Testutil.allocated_words f) -. overhead) /. float_of_int n in
  let zero name f = Alcotest.(check (float 0.01)) (name ^ ": words per draw") 0. (per_draw f) in
  zero "Rng.int" (fun () ->
      for _ = 1 to n do
        hits := !hits + Rng.int r 1000
      done);
  zero "Rng.int_in" (fun () ->
      for _ = 1 to n do
        hits := !hits + Rng.int_in r 16 256
      done);
  zero "Rng.bernoulli" (fun () ->
      for _ = 1 to n do
        if Rng.bernoulli r 0.05 then incr hits
      done);
  let float_words =
    per_draw (fun () ->
        for _ = 1 to n do
          if Rng.float r < 0.5 then incr hits
        done)
  in
  if float_words > 2.01 then
    Alcotest.failf "Rng.float: %.2f words per draw, more than its 2-word result" float_words

(* --- Bgp_table --- *)

let test_table_basics () =
  let t = Bgp_table.create () in
  Bgp_table.add t (p "10.0.0.0/16") (a 1);
  Bgp_table.add t (p "10.0.0.0/16") (a 1);
  Bgp_table.add t (p "10.0.0.0/16") (a 2);
  Bgp_table.add t (p "10.0.0.0/24") (a 1);
  Alcotest.(check int) "pairs dedup" 3 (Bgp_table.cardinal t);
  Alcotest.(check bool) "mem" true (Bgp_table.mem t (p "10.0.0.0/16") (a 2));
  Alcotest.(check bool) "not mem" false (Bgp_table.mem t (p "10.0.0.0/24") (a 2))

let test_table_ancestors_roots () =
  let t = Bgp_table.create () in
  Bgp_table.add t (p "10.0.0.0/16") (a 1);
  Bgp_table.add t (p "10.0.0.0/24") (a 1);
  Bgp_table.add t (p "10.0.1.0/24") (a 2);
  Bgp_table.add t (p "11.0.0.0/16") (a 3);
  (* A pair is a root when the lower-bound corpus keeps it as a
     tuple. *)
  let roots = Mlcore.Minimal.max_permissive_vrps t in
  let root q o =
    List.exists
      (fun (v : Rpki.Vrp.t) ->
        Pfx.equal v.Rpki.Vrp.prefix (p q) && Rpki.Asnum.equal v.Rpki.Vrp.asn (a o))
      roots
  in
  Alcotest.(check bool) "same-origin nested is absorbed" false (root "10.0.0.0/24" 1);
  Alcotest.(check bool) "other origin is a root" true (root "10.0.1.0/24" 2);
  Alcotest.(check bool) "top is root" true (root "10.0.0.0/16" 1);
  (* Roots: 10/16(AS1), 10.0.1/24(AS2), 11/16(AS3) — the nested
     10.0.0.0/24(AS1) is absorbed. *)
  Alcotest.(check int) "root pairs" 3 (Bgp_table.root_pair_count t)

let test_table_counts_by_length () =
  let t = Bgp_table.create () in
  Bgp_table.add t (p "10.0.0.0/16") (a 1);
  Bgp_table.add t (p "10.0.0.0/17") (a 1);
  Bgp_table.add t (p "10.0.128.0/17") (a 1);
  Bgp_table.add t (p "10.0.0.0/18") (a 1);
  Bgp_table.add t (p "10.0.64.0/18") (a 9);
  Alcotest.(check (array int)) "per length" [| 1; 2; 1 |]
    (Bgp_table.count_by_length_under t (p "10.0.0.0/16") (a 1) ~max_len:18);
  Alcotest.(check int) "announced_under filters origin" 4
    (List.length (Bgp_table.announced_under t (p "10.0.0.0/16") (a 1)))

(* --- Snapshot calibration: the generated data must sit in the bands
   the paper reports (generous tolerances; exact values live in
   EXPERIMENTS.md). --- *)

let snap = lazy (Snapshot.generate ~params:(Snapshot.scaled 0.03) ~seed:1234 ())

let test_snapshot_size () =
  let s = Lazy.force snap in
  let target = (Snapshot.scaled 0.03).Snapshot.pairs_target in
  let n = Bgp_table.cardinal s.Snapshot.table in
  Alcotest.(check bool) "pair count near target" true
    (n >= target && n < target + target / 10)

let test_snapshot_maxlen_band () =
  let s = Lazy.force snap in
  let vrps = Snapshot.vrps s in
  let n = List.length vrps in
  let ml = List.length (List.filter Rpki.Vrp.uses_max_len vrps) in
  let frac = float_of_int ml /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "maxLength usage %.1f%% in [7%%, 17%%] (paper: ~12%%)" (100. *. frac))
    true
    (frac > 0.07 && frac < 0.17)

let test_snapshot_nested_band () =
  let s = Lazy.force snap in
  let table = s.Snapshot.table in
  let bound = Bgp_table.root_pair_count table in
  let frac = 1.0 -. (float_of_int bound /. float_of_int (Bgp_table.cardinal table)) in
  Alcotest.(check bool)
    (Printf.sprintf "nested pairs %.1f%% in [4%%, 10%%] (paper: ~6.1%%)" (100. *. frac))
    true
    (frac > 0.04 && frac < 0.10)

let test_snapshot_valid_pairs_band () =
  let s = Lazy.force snap in
  let vrps = Snapshot.vrps s in
  let db = Rpki.Validation.create vrps in
  let valid =
    Bgp_table.fold s.Snapshot.table ~init:0 ~f:(fun acc q origin ->
        if Rpki.Validation.authorized db q origin then acc + 1 else acc)
  in
  let coverage = float_of_int valid /. float_of_int (Bgp_table.cardinal s.Snapshot.table) in
  Alcotest.(check bool)
    (Printf.sprintf "RPKI coverage %.1f%% in [4%%, 10%%] (paper: ~6.8%%)" (100. *. coverage))
    true
    (coverage > 0.04 && coverage < 0.10);
  let growth = float_of_int valid /. float_of_int (List.length vrps) in
  Alcotest.(check bool)
    (Printf.sprintf "minimalization growth %.2fx in [1.15, 1.50] (paper: 1.32x)" growth)
    true
    (growth > 1.15 && growth < 1.50)

let test_snapshot_determinism () =
  let s1 = Snapshot.generate ~params:(Snapshot.scaled 0.01) ~seed:5 () in
  let s2 = Snapshot.generate ~params:(Snapshot.scaled 0.01) ~seed:5 () in
  Alcotest.(check int) "same pairs" (Bgp_table.cardinal s1.Snapshot.table)
    (Bgp_table.cardinal s2.Snapshot.table);
  Alcotest.(check (list Testutil.vrp)) "same vrps" (Snapshot.vrps s1) (Snapshot.vrps s2)

let test_snapshot_roas_well_formed () =
  let s = Lazy.force snap in
  (* Every ROA constructs, and its VRPs respect maxLength bounds by
     construction; also every ROA has at least one prefix. *)
  List.iter
    (fun roa ->
      Alcotest.(check bool) "non-empty" true
        (match Rpki.Roa.entries roa with [] -> false | _ :: _ -> true))
    s.Snapshot.roas;
  Alcotest.(check bool) "corpus not empty" true (s.Snapshot.roas <> [])

let test_timeline () =
  let weeks = Timeline.generate ~params:(Snapshot.scaled 0.01) ~seed:9 () in
  Alcotest.(check int) "eight weeks" 8 (List.length weeks);
  Alcotest.(check (list string)) "labels" Timeline.labels
    (List.map (fun (w : Timeline.week) -> w.Timeline.label) weeks);
  (* Table sizes grow monotonically along the timeline. *)
  let sizes =
    List.map (fun (w : Timeline.week) -> Bgp_table.cardinal w.Timeline.snapshot.Snapshot.table) weeks
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone growth" true (monotone sizes)

(* The series runs the generation loop once for all eight weeks; each
   week must still be exactly the snapshot a generator run of its own
   (same seed, that week's params) produces: the same pairs and the
   same ROA list, in order. *)
let test_timeline_weeks_equal_generate () =
  let pair_t = Alcotest.pair Testutil.prefix Testutil.asn in
  List.iter
    (fun (scale, seed) ->
      List.iter
        (fun (w : Timeline.week) ->
          let s = w.Timeline.snapshot in
          let alone = Snapshot.generate ~params:s.Snapshot.params ~seed () in
          let what = Printf.sprintf "scale %g, seed %d, %s" scale seed w.Timeline.label in
          Alcotest.(check (list pair_t)) (what ^ ": pairs")
            (Bgp_table.pairs alone.Snapshot.table) (Bgp_table.pairs s.Snapshot.table);
          Alcotest.(check (list Testutil.roa)) (what ^ ": ROAs") alone.Snapshot.roas s.Snapshot.roas)
        (Timeline.generate ~params:(Snapshot.scaled scale) ~seed ()))
    [ (0.01, 9); (0.005, 3) ]

(* [state_of] takes the table's pairs as they come (the fold order is
   canonical) and only checks the VRP list: both sides must already be
   their own sort-dedup. *)
let test_state_of_canonical () =
  let pair_t = Alcotest.pair Testutil.prefix Testutil.asn in
  let pairs, vrps = Timeline.state_of (Lazy.force snap) in
  Alcotest.(check (list pair_t)) "pairs are their sort-dedup"
    (List.sort_uniq Rpki.Churn.pair_compare pairs) pairs;
  Alcotest.(check (list Testutil.vrp)) "VRPs are their sort-dedup"
    (List.sort_uniq Rpki.Vrp.compare vrps) vrps

let prop_table_root_count_naive =
  let open QCheck2 in
  let gen =
    Gen.list_size (Gen.int_range 1 50)
      (Gen.pair Testutil.gen_clustered_prefix Testutil.gen_small_asn)
  in
  Test.make ~name:"root_pair_count equals naive computation" ~count:200 gen (fun pairs ->
      let t = Bgp_table.create () in
      List.iter (fun (q, origin) -> Bgp_table.add t q origin) pairs;
      let uniq =
        List.sort_uniq
          (fun (q1, o1) (q2, o2) ->
            match String.compare q1 q2 with 0 -> Int.compare o1 o2 | c -> c)
          (List.map (fun (q, o) -> (Pfx.to_string q, Rpki.Asnum.to_int o)) pairs)
      in
      let naive =
        List.length
          (List.filter
             (fun (qs, o) ->
               let q = Pfx.of_string_exn qs in
               not
                 (List.exists
                    (fun (rs, o') ->
                      let r = Pfx.of_string_exn rs in
                      o = o' && Pfx.strict_subset q r)
                    uniq))
             uniq)
      in
      Bgp_table.root_pair_count t = naive)

let () =
  Alcotest.run "dataset"
    [ ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split stability" `Quick test_rng_split_stability;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "distributions" `Quick test_rng_distributions;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing ] );
      ( "bgp_table",
        [ Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "ancestors and roots" `Quick test_table_ancestors_roots;
          Alcotest.test_case "counts by length" `Quick test_table_counts_by_length ] );
      ( "snapshot calibration",
        [ Alcotest.test_case "size" `Quick test_snapshot_size;
          Alcotest.test_case "maxLength band" `Quick test_snapshot_maxlen_band;
          Alcotest.test_case "nested band" `Quick test_snapshot_nested_band;
          Alcotest.test_case "coverage bands" `Quick test_snapshot_valid_pairs_band;
          Alcotest.test_case "determinism" `Quick test_snapshot_determinism;
          Alcotest.test_case "ROAs well-formed" `Quick test_snapshot_roas_well_formed ] );
      ( "timeline",
        [ Alcotest.test_case "weekly series" `Quick test_timeline;
          Alcotest.test_case "every week equals a generator run of its own" `Quick
            test_timeline_weeks_equal_generate;
          Alcotest.test_case "state_of is canonical" `Quick test_state_of_canonical ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_table_root_count_naive ]) ]
