(* The static-analysis pass, checked four ways: the fixture corpora
   against golden findings lists — syntactic and typed phases, and
   R14 over a tree of its own, every rule firing where it must and
   staying quiet where it must not —
   the JSON/baseline round trip (v1 and v2), a unit suite for the
   call-graph reachability engine, and self-checks that the
   production tree lints clean under both phases. *)

module Engine = Lintcore.Engine
module Rules = Lintcore.Rules
module Finding = Lintcore.Finding
module Callgraph = Lintcore.Callgraph

(* Fixtures are copied into the build dir by the dune [deps] clause
   (cwd under [dune runtest]); fall back to the source tree so the test
   also runs via [dune exec] from the repo root. *)
let fixtures_root =
  List.find Sys.file_exists [ "lint_fixtures"; Filename.concat "test" "lint_fixtures" ]

let repo_root () =
  let rec up dir n =
    if n = 0 then Alcotest.fail "dune-project not found above cwd"
    else if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else up (Filename.dirname dir) (n - 1)
  in
  up (Sys.getcwd ()) 6

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fixture_report () = Engine.run ~root:fixtures_root [ "lib"; "bin" ]

(* Under `dune runtest` the repo root found above IS _build/default, so
   the cmts live directly beneath it; from a source-tree run they live
   under root/_build/default. *)
let cmt_dir_for root =
  let d = Filename.concat (Filename.concat root "_build") "default" in
  if Sys.file_exists d then d else root

let typed_rules = [ "R8"; "R10"; "R11"; "R12"; "R13"; "R14" ]

let typed_fixture_report ?(rules = Rules.find typed_rules) () =
  let root = repo_root () in
  Engine.run ~rules ~typed:true ~cmt_dir:(cmt_dir_for root) ~root
    [ Filename.concat (Filename.concat "test" "lint_fixtures") "typed" ]

(* R14 reads lib/, bin/, bench/ and examples/ off the lint root, so its
   corpus is a tree of its own: lint_fixtures/r14/lib, reached from
   lint_fixtures/r14/bin. *)
let r14_fixture_report () =
  let root = repo_root () in
  Engine.run ~rules:(Rules.find typed_rules) ~typed:true ~cmt_dir:(cmt_dir_for root)
    ~root:(List.fold_left Filename.concat root [ "test"; "lint_fixtures"; "r14" ])
    [ "lib"; "bin" ]

(* Files a typed run reported as having no loaded unit. *)
let uncovered (report : Engine.report) =
  List.filter_map
    (fun (f : Finding.t) ->
      if String.equal f.Finding.rule Engine.typed_coverage_rule then Some f.Finding.file
      else None)
    report.Engine.findings

(* --- golden corpus ---------------------------------------------------- *)

let test_golden () =
  let report = fixture_report () in
  let got = String.trim (Engine.to_text report) in
  let expected = String.trim (read_file (Filename.concat fixtures_root "expected_findings.txt")) in
  Alcotest.(check string) "fixture findings match the golden file" expected got

let test_every_rule_fires () =
  let report = fixture_report () in
  List.iter
    (fun rule ->
      let hits =
        List.length (List.filter (fun f -> String.equal f.Finding.rule rule.Rules.id) report.Engine.findings)
      in
      Alcotest.(check bool)
        (Printf.sprintf "rule %s fires on its fixture" rule.Rules.id)
        true (hits > 0))
    (* the typed rules have their own corpus (typed-fixtures suite) *)
    (List.filter
       (fun (r : Rules.t) ->
         match r.kind with Rules.Typed_rule _ -> false | _ -> true)
       Rules.all)

let test_good_fixtures_clean () =
  let report = fixture_report () in
  let is_good_file f =
    let base = Filename.basename f.Finding.file in
    List.exists (fun s -> String.equal base s)
      [ "r1_good.ml"; "r2_good.ml"; "r4_good.ml"; "r5_good.ml"; "r6_good.ml"; "r7_good.ml";
        "r2_scope.ml"; "r5_scope.ml" ]
  in
  match List.filter is_good_file report.Engine.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "good fixture flagged: %s" (Finding.to_text f)

let test_rule_selection () =
  let r4 = Rules.find [ "R4" ] in
  let report = Engine.run ~rules:r4 ~root:fixtures_root [ "lib"; "bin" ] in
  Alcotest.(check int) "only the missing-mli finding" 1 (List.length report.Engine.findings);
  List.iter
    (fun f -> Alcotest.(check string) "finding is R4" "R4" f.Finding.rule)
    report.Engine.findings

(* --- the typed phase over the fixture corpus --------------------------- *)

let test_typed_golden () =
  let report = typed_fixture_report () in
  Alcotest.(check bool) "typed phase ran" true (report.Engine.typed_units > 0);
  Alcotest.(check (option string)) "no degradation warning" None report.Engine.typed_warning;
  let got = String.trim (Engine.to_text report) in
  let expected =
    String.trim (read_file (Filename.concat fixtures_root "expected_typed_findings.txt"))
  in
  Alcotest.(check string) "typed fixture findings match the golden file" expected got

let test_typed_rules_fire () =
  let report = typed_fixture_report () in
  let findings = report.Engine.findings @ (r14_fixture_report ()).Engine.findings in
  List.iter
    (fun rule ->
      let hits = List.filter (fun f -> String.equal f.Finding.rule rule) findings in
      Alcotest.(check bool)
        (Printf.sprintf "rule %s fires on its fixture" rule)
        true
        (List.length hits > 0))
    typed_rules;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "finding at %s:%d has a witness chain" f.Finding.file f.Finding.line)
        true
        (f.Finding.witness <> []))
    findings

(* R14 flags the binding nothing reaches and the one whose waiver has
   no reason; a waiver with a reason, and bindings reached only through
   a renamed alias, a [let*], a functor argument or a clock closure,
   stay clean. *)
let test_r14_golden () =
  let report = r14_fixture_report () in
  Alcotest.(check bool) "typed phase ran" true (report.Engine.typed_units > 0);
  Alcotest.(check (list string)) "every scanned .ml has a typed unit" [] (uncovered report);
  let got = String.trim (Engine.to_text report) in
  let expected =
    String.trim (read_file (Filename.concat fixtures_root "expected_r14_findings.txt"))
  in
  Alcotest.(check string) "R14 fixture findings match the golden file" expected got

let test_typed_good_fixtures_clean () =
  let report = typed_fixture_report () in
  let is_good_file f =
    let base = Filename.basename f.Finding.file in
    List.exists (String.equal base)
      [ "r8_good.ml"; "r11_good.ml"; "r12_good.ml"; "r13_good.ml"; "cache_server.ml" ]
  in
  (match List.filter is_good_file report.Engine.findings with
  | [] -> ()
  | f :: _ -> Alcotest.failf "good typed fixture flagged: %s" (Finding.to_text f));
  (* arm_safe guards its raise with a catch-all try; only arm's
     callback may be flagged in that file *)
  List.iter
    (fun f ->
      if String.equal (Filename.basename f.Finding.file) "r10_callbacks.ml" then
        Alcotest.(check int) "only arm's callback line is flagged" 5 f.Finding.line)
    report.Engine.findings

let test_missing_cmt_degrades () =
  let root = repo_root () in
  let report =
    Engine.run ~typed:true
      ~cmt_dir:(Filename.concat root "no-such-build-dir")
      ~root
      [ Filename.concat (Filename.concat "test" "lint_fixtures") "typed" ]
  in
  Alcotest.(check int) "no typed units" 0 report.Engine.typed_units;
  (match report.Engine.typed_warning with
  | Some w ->
    Alcotest.(check bool) "warning mentions the build step" true
      (let nl = String.length "dune build" and wl = String.length w in
       let rec scan i =
         i + nl <= wl && (String.equal (String.sub w i nl) "dune build" || scan (i + 1))
       in
       scan 0)
  | None -> Alcotest.fail "expected a typed-degradation warning");
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s not reported as run" id)
        false
        (List.exists (String.equal id) report.Engine.rules_run))
    typed_rules;
  (* degradation is not a failure: syntactic rules still ran *)
  Alcotest.(check bool) "syntactic rules ran" true
    (List.exists (String.equal "R1") report.Engine.rules_run)

(* A scanned implementation no loaded unit comes from is named, and
   fails the run: the syntactic fixtures are never compiled, so one of
   them next to the (compiled) typed corpus is exactly such a file. *)
let test_uncovered_file_named () =
  let root = repo_root () in
  let fixtures = Filename.concat "test" "lint_fixtures" in
  let orphan = Filename.concat (Filename.concat fixtures "bin") "r2_scope.ml" in
  let report =
    Engine.run
      ~rules:(Rules.find typed_rules)
      ~typed:true ~cmt_dir:(cmt_dir_for root) ~root
      [ Filename.concat fixtures "typed"; orphan ]
  in
  Alcotest.(check bool) "typed phase ran" true (report.Engine.typed_units > 0);
  Alcotest.(check (list string)) "only the uncompiled file is named" [ orphan ]
    (uncovered report);
  Alcotest.(check bool) "an uncovered file is an error" true (Engine.has_errors report)

(* --- call-graph reachability on a hand-built module -------------------- *)

(* A diamond with a waived arm, a guarded edge and a fact sink:

     top ──→ left(waived) ──→ sink(fact)
       └───→ right ──guarded─→ sink            *)
let hand_graph () =
  let g = Callgraph.create () in
  let n id ?(attrs = []) ?(facts = []) calls =
    ignore
      (Callgraph.add_node g ~id ~file:"hand.ml" ~line:1 ~attrs ~facts
         ~calls:
           (List.map
              (fun (callee, guarded) -> { Callgraph.callee; call_line = 1; guarded })
              calls)
         ())
  in
  let fact =
    { Callgraph.kind = Callgraph.Raises; detail = "failwith"; fact_line = 9; fact_col = 2 }
  in
  n "M.top" [ ("M.left", false); ("M.right", false) ];
  n "M.left" ~attrs:[ "lint.raise_ok" ] [ ("M.sink", false) ];
  n "M.right" [ ("M.sink", true) ];
  n "M.sink" ~facts:[ fact ] [];
  g

let reached g ~waiver ~follow_guarded root =
  List.map (fun ((n : Callgraph.node), _) -> n.Callgraph.id)
    (Callgraph.reach g ~waiver ~follow_guarded root)

let test_reach_basic () =
  let g = hand_graph () in
  Alcotest.(check (list string)) "BFS order, root first"
    [ "M.top"; "M.left"; "M.right"; "M.sink" ]
    (reached g ~waiver:"lint.alloc_ok" ~follow_guarded:true "M.top");
  (* left is waived away, so the sink is only reachable over the
     guarded edge — which follow_guarded:true does take *)
  Alcotest.(check (list string)) "waived node skipped, guarded edge followed"
    [ "M.top"; "M.right"; "M.sink" ]
    (reached g ~waiver:"lint.raise_ok" ~follow_guarded:true "M.top")

let test_reach_waiver_blocks_path () =
  let g = Callgraph.create () in
  let n id ?(attrs = []) calls =
    ignore
      (Callgraph.add_node g ~id ~file:"hand.ml" ~line:1 ~attrs
         ~calls:
           (List.map (fun callee -> { Callgraph.callee; call_line = 1; guarded = false }) calls)
         ())
  in
  n "M.a" [ "M.b" ];
  n "M.b" ~attrs:[ "lint.handle_ok" ] [ "M.c" ];
  n "M.c" [];
  Alcotest.(check (list string)) "mid-chain waiver kills everything beyond it"
    [ "M.a" ]
    (reached g ~waiver:"lint.handle_ok" ~follow_guarded:true "M.a");
  Alcotest.(check (list string)) "other waivers do not"
    [ "M.a"; "M.b"; "M.c" ]
    (reached g ~waiver:"lint.alloc_ok" ~follow_guarded:true "M.a")

let test_reach_guarded_and_chains () =
  let g = hand_graph () in
  (* R10 semantics: don't follow guarded edges, skip waived nodes —
     the sink's fact is unreachable both ways *)
  Alcotest.(check (list string)) "guarded edge not followed"
    [ "M.top"; "M.right" ]
    (reached g ~waiver:"lint.raise_ok" ~follow_guarded:false "M.top");
  (* witness chain is the shortest path, root first *)
  let chains = Callgraph.reach g ~waiver:"lint.alloc_ok" ~follow_guarded:true "M.top" in
  let chain_of id =
    match List.find_opt (fun ((n : Callgraph.node), _) -> String.equal n.Callgraph.id id) chains with
    | Some (_, c) -> c
    | None -> Alcotest.failf "%s not reached" id
  in
  Alcotest.(check (list string)) "chain to sink" [ "M.top"; "M.left"; "M.sink" ]
    (chain_of "M.sink");
  Alcotest.(check (list string)) "unknown root reaches nothing" []
    (reached g ~waiver:"lint.alloc_ok" ~follow_guarded:true "M.absent")

(* --- report formats and baseline -------------------------------------- *)

let test_json_shape () =
  let report = fixture_report () in
  let json = Engine.to_json report in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec scan i = i + nl <= jl && (String.equal (String.sub json i nl) needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "schema tag present" true (contains Engine.schema);
  Alcotest.(check bool) "fingerprints present" true (contains "\"fingerprint\"");
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "fingerprint of %s emitted" (Finding.fingerprint f))
        true
        (contains (Finding.fingerprint f)))
    report.Engine.findings

let test_baseline_roundtrip () =
  let report = fixture_report () in
  Alcotest.(check bool) "fixtures do have errors" true (Engine.has_errors report);
  let tmp = Filename.temp_file "lint_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc (Engine.to_json report);
      close_out oc;
      let baseline = Engine.load_baseline tmp in
      Alcotest.(check int) "one fingerprint per finding"
        (List.length report.Engine.findings) (List.length baseline);
      let filtered = Engine.apply_baseline ~baseline report in
      Alcotest.(check int) "baseline swallows every finding" 0
        (List.length filtered.Engine.findings);
      Alcotest.(check bool) "no errors left" false (Engine.has_errors filtered))

(* A v1-era report (no environment header, no witness arrays) must
   still load as a baseline: the per-line finding format is what the
   reader keys on, and it did not change. *)
let test_baseline_v1_compat () =
  let v1 =
    "{\n\
    \  \"schema\": \"rpki-maxlen/lint/v1\",\n\
    \  \"root\": \"/tmp/x\",\n\
    \  \"files_scanned\": 2,\n\
    \  \"rules\": [\"R1\"],\n\
    \  \"error_count\": 2,\n\
    \  \"warning_count\": 0,\n\
    \  \"findings\": [\n\
    \    {\"rule\": \"R1\", \"severity\": \"error\", \"file\": \"lib/a.ml\", \"line\": 3, \
     \"col\": 7, \"message\": \"m\", \"fingerprint\": \"R1|lib/a.ml|3|7\"},\n\
    \    {\"rule\": \"R5\", \"severity\": \"error\", \"file\": \"lib/b.ml\", \"line\": 9, \
     \"col\": 0, \"message\": \"m\", \"fingerprint\": \"R5|lib/b.ml|9|0\"}\n\
    \  ]\n\
     }\n"
  in
  let tmp = Filename.temp_file "lint_v1" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc v1;
      close_out oc;
      let fps = List.sort String.compare (Engine.load_baseline tmp) in
      Alcotest.(check (list string)) "v1 fingerprints load"
        [ "R1|lib/a.ml|3|7"; "R5|lib/b.ml|9|0" ]
        fps)

(* The v2 round trip, with witness-bearing typed findings in the
   report: chains must not perturb fingerprint extraction. *)
let test_typed_baseline_roundtrip () =
  let report = typed_fixture_report () in
  Alcotest.(check bool) "typed fixtures do have errors" true (Engine.has_errors report);
  let tmp = Filename.temp_file "lint_v2_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc (Engine.to_json report);
      close_out oc;
      let baseline = Engine.load_baseline tmp in
      Alcotest.(check int) "one fingerprint per typed finding"
        (List.length report.Engine.findings)
        (List.length baseline);
      let filtered = Engine.apply_baseline ~baseline report in
      Alcotest.(check int) "baseline swallows every typed finding" 0
        (List.length filtered.Engine.findings))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || scan (i + 1)) in
  scan 0

let test_json_header_fields () =
  let report = typed_fixture_report () in
  let json = Engine.to_json report in
  Alcotest.(check bool) "v2 schema tag" true (contains ~needle:"\"rpki-maxlen/lint/v2\"" json);
  Alcotest.(check bool) "ocaml_version recorded" true
    (contains ~needle:(Printf.sprintf "\"ocaml_version\": \"%s\"" Sys.ocaml_version) json);
  Alcotest.(check bool) "word_size recorded" true
    (contains ~needle:(Printf.sprintf "\"word_size\": %d" Sys.word_size) json);
  Alcotest.(check bool) "typed_units recorded" true
    (contains ~needle:(Printf.sprintf "\"typed_units\": %d" report.Engine.typed_units) json);
  Alcotest.(check bool) "witness chains serialized" true (contains ~needle:"\"witness\": [{" json)

(* SARIF 2.1.0 rendering: version tag, executed rules in the driver,
   one result per finding, 1-based startColumn, witness chains as
   relatedLocations. *)
let test_sarif_shape () =
  let report = typed_fixture_report () in
  let sarif = Engine.to_sarif report in
  Alcotest.(check bool) "version tag" true (contains ~needle:"\"version\": \"2.1.0\"" sarif);
  Alcotest.(check bool) "schema uri" true
    (contains ~needle:"https://json.schemastore.org/sarif-2.1.0.json" sarif);
  Alcotest.(check bool) "driver name" true
    (contains ~needle:"\"name\": \"rpki-maxlen-lint\"" sarif);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "driver rule %s present" id)
        true
        (contains ~needle:(Printf.sprintf "{\"id\": \"%s\", \"name\": \"" id) sarif))
    report.Engine.rules_run;
  List.iter
    (fun (f : Finding.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "result for %s" (Finding.fingerprint f))
        true
        (contains ~needle:(Printf.sprintf "\"lintFingerprint/v1\": \"%s\"" (Finding.fingerprint f)) sarif);
      (* SARIF columns are 1-based where findings are 0-based *)
      Alcotest.(check bool)
        (Printf.sprintf "1-based column for %s" (Finding.fingerprint f))
        true
        (contains
           ~needle:
             (Printf.sprintf "\"region\": {\"startLine\": %d, \"startColumn\": %d}" f.Finding.line
                (f.Finding.col + 1))
           sarif))
    report.Engine.findings;
  Alcotest.(check bool) "witness chains become relatedLocations" true
    (contains ~needle:"\"relatedLocations\": [" sarif)

(* Discovery must be byte-stable: sorted output, independent of the
   order (or duplication) of the requested paths — reports and
   baselines diff cleanly across runs and machines. *)
let test_discover_deterministic () =
  let root = repo_root () in
  let forward = Engine.discover ~root [ "lib"; "bin" ] in
  let reversed = Engine.discover ~root [ "bin"; "lib" ] in
  let duplicated = Engine.discover ~root [ "lib"; "bin"; "lib"; "bin" ] in
  Alcotest.(check bool) "discovery found sources" true (forward <> []);
  Alcotest.(check (list string)) "path order does not matter" forward reversed;
  Alcotest.(check (list string)) "duplicate paths collapse" forward duplicated;
  Alcotest.(check (list string)) "output is sorted"
    (List.sort String.compare forward)
    forward

let test_lint_ignore_marker () =
  let dir = Filename.temp_file "lintsrc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let sub = Filename.concat dir "vendored" in
  Sys.mkdir sub 0o755;
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  let good = Filename.concat dir "good.ml" in
  let bad = Filename.concat sub "bad.ml" in
  let marker = Filename.concat sub ".lint-ignore" in
  write good "let ok = 1\n";
  write bad "let x = (unclosed\n";
  write marker "";
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ good; bad; marker ];
      Sys.rmdir sub;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check (list string)) "marked directory is skipped" [ "good.ml" ]
        (Engine.discover ~root:dir [ dir ]);
      let report = Engine.run ~root:dir [ dir ] in
      Alcotest.(check int) "nothing flagged behind the marker" 0
        (List.length report.Engine.findings))

let test_unparseable_file () =
  let dir = Filename.temp_file "lintsrc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "broken.ml" in
  let oc = open_out path in
  output_string oc "let x = (unclosed\n";
  close_out oc;
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      let report = Engine.run ~root:dir [ "broken.ml" ] in
      match report.Engine.findings with
      | [ f ] ->
        Alcotest.(check string) "parse-error pseudo rule" "parse" f.Finding.rule;
        Alcotest.(check bool) "counts as an error" true (Engine.has_errors report)
      | l -> Alcotest.failf "expected one parse finding, got %d" (List.length l))

(* --- the production tree lints clean ----------------------------------- *)

let test_tree_is_clean () =
  let root = repo_root () in
  let report = Engine.run ~root [ "lib"; "bin"; "bench"; "examples"; "test" ] in
  match report.Engine.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "production tree has %d finding(s); first: %s"
      (List.length report.Engine.findings)
      (Finding.to_text f)

(* The typed self-check: with R8 and R10-R14 enabled over the full
   tree, zero unwaived findings — and the phase must have actually run
   (a silent degradation would make this test vacuous). The fixture
   corpus' cmts are loaded too, but its deliberately-bad roots are
   scoped out of the discovered file set. *)
let test_tree_is_clean_typed () =
  let root = repo_root () in
  let report =
    Engine.run ~typed:true ~cmt_dir:(cmt_dir_for root) ~root
      [ "lib"; "bin"; "bench"; "examples"; "test" ]
  in
  Alcotest.(check bool) "typed phase analyzed units" true (report.Engine.typed_units > 0);
  Alcotest.(check (option string)) "no degradation warning" None report.Engine.typed_warning;
  Alcotest.(check (list string)) "every scanned .ml has a typed unit" [] (uncovered report);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s ran" id)
        true
        (List.exists (String.equal id) report.Engine.rules_run))
    typed_rules;
  match report.Engine.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "production tree has %d typed finding(s); first: %s"
      (List.length report.Engine.findings)
      (Finding.to_text f)

let () =
  Alcotest.run "lint"
    [ ( "fixtures",
        [ Alcotest.test_case "golden findings" `Quick test_golden;
          Alcotest.test_case "every rule fires" `Quick test_every_rule_fires;
          Alcotest.test_case "good fixtures stay clean" `Quick test_good_fixtures_clean;
          Alcotest.test_case "--rules selection" `Quick test_rule_selection ] );
      ( "typed-fixtures",
        [ Alcotest.test_case "typed golden findings" `Quick test_typed_golden;
          Alcotest.test_case "R8-R13 fire with witnesses" `Quick test_typed_rules_fire;
          Alcotest.test_case "R14 golden findings" `Quick test_r14_golden;
          Alcotest.test_case "good typed fixtures stay clean" `Quick
            test_typed_good_fixtures_clean;
          Alcotest.test_case "missing cmts degrade gracefully" `Quick
            test_missing_cmt_degrades;
          Alcotest.test_case "a file without a cmt is named" `Quick
            test_uncovered_file_named ] );
      ( "callgraph",
        [ Alcotest.test_case "reach: BFS, waivers, guarded edges" `Quick test_reach_basic;
          Alcotest.test_case "reach: mid-chain waiver blocks" `Quick
            test_reach_waiver_blocks_path;
          Alcotest.test_case "reach: R10 semantics and chains" `Quick
            test_reach_guarded_and_chains ] );
      ( "report",
        [ Alcotest.test_case "json shape" `Quick test_json_shape;
          Alcotest.test_case "baseline round trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "v1 baseline compatibility" `Quick test_baseline_v1_compat;
          Alcotest.test_case "typed (v2) baseline round trip" `Quick
            test_typed_baseline_roundtrip;
          Alcotest.test_case "v2 header fields" `Quick test_json_header_fields;
          Alcotest.test_case "sarif 2.1.0 shape" `Quick test_sarif_shape;
          Alcotest.test_case "discovery is deterministic" `Quick
            test_discover_deterministic;
          Alcotest.test_case ".lint-ignore marker" `Quick test_lint_ignore_marker;
          Alcotest.test_case "unparseable file" `Quick test_unparseable_file ] );
      ( "self-check",
        [ Alcotest.test_case "production tree lints clean" `Quick test_tree_is_clean;
          Alcotest.test_case "production tree lints clean (typed)" `Quick
            test_tree_is_clean_typed ] ) ]
