(* The §6 analysis and the Table 1 / Figure 3 drivers: structural
   invariants that must hold on any dataset, plus the paper-shape
   bands on the calibrated snapshot. *)

module Snapshot = Dataset.Snapshot
module Analysis = Mlcore.Analysis
module Scenario = Mlcore.Scenario
module Minimal = Mlcore.Minimal
module Compress = Mlcore.Compress
module Timeline = Dataset.Timeline
module Vrp = Rpki.Vrp

let p = Testutil.p4
let a = Testutil.a

let snap = lazy (Snapshot.generate ~params:(Snapshot.scaled 0.02) ~seed:99 ())
let rows = lazy (Scenario.table1 (Lazy.force snap))
let find label = List.find (fun (r : Scenario.row) -> r.Scenario.label = label) (Lazy.force rows)

let pdus label = (find label).Scenario.pdus

let test_table1_has_paper_rows () =
  let r = Lazy.force rows in
  Alcotest.(check int) "seven scenarios" 7 (List.length r);
  (* Paper values attached for the comparison printout. *)
  List.iter
    (fun (row : Scenario.row) ->
      Alcotest.(check bool) "paper value present" true (row.Scenario.paper_pdus <> None))
    r;
  (* Security marking matches the paper's check/cross column. *)
  Alcotest.(check bool) "status quo vulnerable" false (find "Today").Scenario.secure;
  Alcotest.(check bool) "minimal secure" true
    (find "Today, minimal ROAs, no maxLength").Scenario.secure;
  Alcotest.(check bool) "bound vulnerable" false
    (find "Full deployment, lower bound (max permissive ROAs)").Scenario.secure

let test_table1_orderings () =
  (* The relations that make the paper's argument, independent of
     calibration:
     compressed <= original for every compression row;
     minimal >= status quo (hardening costs tuples);
     full deployment >= today;
     lower bound <= full compressed <= full. *)
  Alcotest.(check bool) "compress shrinks status quo" true
    (pdus "Today (compressed)" <= pdus "Today");
  Alcotest.(check bool) "compress shrinks minimal" true
    (pdus "Today, minimal ROAs, with maxLength (compressed)"
     <= pdus "Today, minimal ROAs, no maxLength");
  Alcotest.(check bool) "hardening grows the list" true
    (pdus "Today, minimal ROAs, no maxLength" >= pdus "Today");
  Alcotest.(check bool) "bound is a lower bound" true
    (pdus "Full deployment, lower bound (max permissive ROAs)"
     <= pdus "Full deployment, minimal ROAs, with maxLength");
  Alcotest.(check bool) "full compressed below full" true
    (pdus "Full deployment, minimal ROAs, with maxLength"
     <= pdus "Full deployment, minimal ROAs, no maxLength")

let test_table1_full_deployment_exact () =
  (* Full-deployment minimal = one tuple per announced pair, by
     definition. *)
  let s = Lazy.force snap in
  Alcotest.(check int) "equals table size"
    (Dataset.Bgp_table.cardinal s.Snapshot.table)
    (pdus "Full deployment, minimal ROAs, no maxLength")

let test_analysis_consistency () =
  let s = Lazy.force snap in
  let stats = Analysis.measure s in
  Alcotest.(check int) "valid pairs equals minimal row" stats.Analysis.valid_pairs
    (pdus "Today, minimal ROAs, no maxLength");
  Alcotest.(check int) "bgp pairs equals full row" stats.Analysis.bgp_pairs
    (pdus "Full deployment, minimal ROAs, no maxLength");
  Alcotest.(check int) "lower bound equals bound row" stats.Analysis.lower_bound
    (pdus "Full deployment, lower bound (max permissive ROAs)");
  Alcotest.(check int) "additional is the difference"
    (stats.Analysis.valid_pairs - stats.Analysis.vrps)
    stats.Analysis.additional_prefixes;
  Alcotest.(check bool) "vulnerable <= maxlen" true
    (stats.Analysis.vulnerable_maxlen_vrps <= stats.Analysis.maxlen_vrps);
  Alcotest.(check bool) "maxlen <= vrps" true (stats.Analysis.maxlen_vrps <= stats.Analysis.vrps)

let test_minimal_vrps_are_valid_and_exact () =
  let s = Lazy.force snap in
  let vrps = Snapshot.vrps s in
  let minimal = Minimal.minimal_vrps s.Snapshot.table vrps in
  let db = Rpki.Validation.create vrps in
  List.iter
    (fun (x : Vrp.t) ->
      if Vrp.uses_max_len x then Alcotest.fail "minimal VRP uses maxLength";
      if not (Rpki.Validation.authorized db x.Vrp.prefix x.Vrp.asn) then
        Alcotest.fail "minimal VRP not authorized by original";
      if not (Dataset.Bgp_table.mem s.Snapshot.table x.Vrp.prefix x.Vrp.asn) then
        Alcotest.fail "minimal VRP not announced")
    minimal

let test_minimal_roas_match_vrps () =
  (* Per-ROA conversion and whole-set conversion agree on the PDU
     list. *)
  let s = Lazy.force snap in
  let via_roas =
    Rpki.Scan_roas.vrps_of_roas (Minimal.minimal_roas s.Snapshot.table s.Snapshot.roas)
  in
  let direct = Minimal.minimal_vrps s.Snapshot.table (Snapshot.vrps s) in
  Alcotest.(check (list Testutil.vrp)) "same PDUs" direct via_roas

let test_minimal_roa_conversion_drops_nothing_announced () =
  (* §7: conversion keeps ROA count (modulo ROAs that authorized
     nothing announced, which disappear). *)
  let s = Lazy.force snap in
  let converted = Minimal.minimal_roas s.Snapshot.table s.Snapshot.roas in
  Alcotest.(check bool) "no more ROAs than before" true
    (List.length converted <= List.length s.Snapshot.roas);
  List.iter
    (fun roa ->
      if Rpki.Roa.uses_max_len roa then Alcotest.fail "converted ROA still uses maxLength")
    converted

let test_is_minimal_vrp () =
  let t = Dataset.Bgp_table.create () in
  Dataset.Bgp_table.add t (p "10.0.0.0/16") (a 1);
  Dataset.Bgp_table.add t (p "10.0.0.0/17") (a 1);
  Dataset.Bgp_table.add t (p "10.0.128.0/17") (a 1);
  Alcotest.(check bool) "complete chain is minimal" true
    (Minimal.is_minimal_vrp t (Vrp.make_exn (p "10.0.0.0/16") ~max_len:17 (a 1)));
  Alcotest.(check bool) "slack is not" false
    (Minimal.is_minimal_vrp t (Vrp.make_exn (p "10.0.0.0/16") ~max_len:18 (a 1)));
  Alcotest.(check bool) "exact is minimal" true
    (Minimal.is_minimal_vrp t (Vrp.exact (p "10.0.0.0/16") (a 1)));
  Alcotest.(check bool) "unannounced exact is not" false
    (Minimal.is_minimal_vrp t (Vrp.exact (p "10.99.0.0/16") (a 1)))

let test_max_permissive () =
  let t = Dataset.Bgp_table.create () in
  Dataset.Bgp_table.add t (p "10.0.0.0/16") (a 1);
  Dataset.Bgp_table.add t (p "10.0.5.0/24") (a 1);
  Dataset.Bgp_table.add t (p "10.0.6.0/24") (a 2);
  let mp = Minimal.max_permissive_vrps t in
  Alcotest.(check (list Testutil.vrp))
    "roots at full maxLength"
    [ Vrp.make_exn (p "10.0.0.0/16") ~max_len:32 (a 1);
      Vrp.make_exn (p "10.0.6.0/24") ~max_len:32 (a 2) ]
    mp;
  (* The bound's VRPs authorize everything announced. *)
  let db = Rpki.Validation.create mp in
  Dataset.Bgp_table.iter t (fun q origin ->
      Alcotest.(check bool) "covers announced" true (Rpki.Validation.authorized db q origin))

let test_figure3_series_shape () =
  let weeks = Dataset.Timeline.generate ~params:(Snapshot.scaled 0.01) ~seed:3 () in
  let fa = Scenario.figure3a weeks and fb = Scenario.figure3b weeks in
  Alcotest.(check int) "panel a series" 4 (List.length fa);
  Alcotest.(check int) "panel b series" 3 (List.length fb);
  List.iter
    (fun (s : Scenario.series) ->
      Alcotest.(check int) "eight points" 8 (List.length s.Scenario.points))
    (fa @ fb);
  (* Within every week, the Table 1 orderings hold across series. *)
  let point series_name week series_list =
    let s = List.find (fun (s : Scenario.series) -> s.Scenario.name = series_name) series_list in
    List.assoc week s.Scenario.points
  in
  List.iter
    (fun week ->
      Alcotest.(check bool) "compressed <= status quo" true
        (point "Status quo (compressed)" week fa <= point "Status quo" week fa);
      Alcotest.(check bool) "minimal compressed <= minimal" true
        (point "Minimal ROAs, with maxLength" week fa <= point "Minimal ROAs, no maxLength" week fa);
      Alcotest.(check bool) "bound lowest" true
        (point "Lower bound on # PDUs" week fb <= point "Minimal ROAs, with maxLength" week fb);
      Alcotest.(check bool) "full compressed <= full" true
        (point "Minimal ROAs, with maxLength" week fb <= point "Minimal ROAs, no maxLength" week fb))
    Dataset.Timeline.labels

(* --- the merge rule is an argument --------------------------------------- *)

let small = lazy (Snapshot.generate ~params:(Snapshot.scaled 0.01) ~seed:7 ())
let triple = Alcotest.(triple int int int)

let row_pdus rows label =
  (List.find (fun (r : Scenario.row) -> r.Scenario.label = label) rows).Scenario.pdus

(* (status quo, minimal, full deployment) compressed counts, straight
   from [Compress.run]. *)
let compress_counts mode snap =
  let table = snap.Snapshot.table and status_quo = Snapshot.vrps snap in
  let n vrps = List.length (Compress.run ~mode vrps) in
  (n status_quo, n (Minimal.minimal_vrps table status_quo), n (Minimal.full_deployment_vrps table))

(* The same counts from Table 1's rows and from Figure 3's series, on
   the snapshot as a one-week timeline. *)
let driver_counts ?mode snap =
  let row = row_pdus (Scenario.table1 ?mode snap) in
  let weeks = [ { Timeline.label = "w"; snapshot = snap } ] in
  let point series name =
    let s = List.find (fun (s : Scenario.series) -> s.Scenario.name = name) series in
    List.assoc "w" s.Scenario.points
  in
  let fa = Scenario.figure3a ?mode weeks and fb = Scenario.figure3b ?mode weeks in
  ( ( row "Today (compressed)",
      row "Today, minimal ROAs, with maxLength (compressed)",
      row "Full deployment, minimal ROAs, with maxLength" ),
    ( point fa "Status quo (compressed)",
      point fa "Minimal ROAs, with maxLength",
      point fb "Minimal ROAs, with maxLength" ) )

let test_mode_argument () =
  let s = Lazy.force small in
  let strict = compress_counts Compress.Strict s and paper = compress_counts Compress.Paper s in
  Alcotest.(check bool) "the snapshot separates the two modes" false (strict = paper);
  let table1, figure3 = driver_counts ~mode:Compress.Paper s in
  Alcotest.check triple "table1 ~mode:Paper" paper table1;
  Alcotest.check triple "figure3 ~mode:Paper" paper figure3;
  let table1, figure3 = driver_counts s in
  Alcotest.check triple "table1 default after a Paper call" strict table1;
  Alcotest.check triple "figure3 default after a Paper call" strict figure3

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_report_rendering () =
  let table = Mlcore.Report.render_table1 ~scale:0.02 (Lazy.force rows) in
  List.iter
    (fun (r : Scenario.row) ->
      Alcotest.(check bool) r.Scenario.label true (contains table r.Scenario.label))
    (Lazy.force rows);
  let weeks = Dataset.Timeline.generate ~params:(Snapshot.scaled 0.005) ~seed:3 () in
  let csv = Mlcore.Report.csv_of_series (Scenario.figure3b weeks) in
  Alcotest.(check int) "csv lines: header + 8 weeks" 9
    (List.length (String.split_on_char '\n' (String.trim csv)))

let () =
  Alcotest.run "mlcore.scenario"
    [ ( "table1",
        [ Alcotest.test_case "paper rows" `Quick test_table1_has_paper_rows;
          Alcotest.test_case "orderings" `Quick test_table1_orderings;
          Alcotest.test_case "full deployment exact" `Quick test_table1_full_deployment_exact ] );
      ( "analysis",
        [ Alcotest.test_case "consistency with table1" `Quick test_analysis_consistency ] );
      ( "minimal",
        [ Alcotest.test_case "minimal VRPs valid+announced" `Quick test_minimal_vrps_are_valid_and_exact;
          Alcotest.test_case "per-ROA conversion agrees" `Quick test_minimal_roas_match_vrps;
          Alcotest.test_case "conversion well-formed" `Quick test_minimal_roa_conversion_drops_nothing_announced;
          Alcotest.test_case "is_minimal_vrp" `Quick test_is_minimal_vrp;
          Alcotest.test_case "max permissive bound" `Quick test_max_permissive ] );
      ( "figure3",
        [ Alcotest.test_case "series shape" `Quick test_figure3_series_shape ] );
      ( "arguments",
        [ Alcotest.test_case "compression mode is an argument" `Quick test_mode_argument ] );
      ( "report",
        [ Alcotest.test_case "rendering" `Quick test_report_rendering ] ) ]
