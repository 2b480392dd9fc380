(* The benchmark & reproduction harness: regenerates every table and
   figure of the paper (printing paper-vs-measured), then times the
   compress_roas pipeline — one sequential run per dataset, emitted as
   BENCH_compress.json — and its substrates with Bechamel.

   Environment knobs:
     BENCH_SCALE   dataset scale for Table 1 / section 6 (default 1.0,
                   the paper's 776,945-pair snapshot)
     FIG3_SCALE    dataset scale for the 8-week Figure 3 series
                   (default 0.25 to keep the run minutes-long)
     BENCH_SEED    PRNG seed (default 42)
     RPKI_DOMAINS  domain count for the fork-join steps of section 6,
                   Table 1 and the Figure 3 timeline, and one extra
                   agreement run in the validate and arena sections
                   (default Domain.recommended_domain_count;
                   1 = sequential)
     BENCH_ONLY    comma-separated subset of sections to run, among
                   section6, audit, table1, figure3, attack, compress,
                   validate, arena, rtr, fanout, churn, ablation, micro
                   (default: all)
     BENCH_JSON    output path for the machine-readable compression
                   benchmark (default BENCH_compress.json)
     BENCH_VALIDATE_JSON
                   output path for the machine-readable validation
                   benchmark (default BENCH_validate.json)
     BENCH_RTR_SEEDS
                   seeds per fault policy for the RTR fault-injection
                   sweep (default 50)
     BENCH_RTR_JSON
                   output path for the machine-readable RTR sweep
                   (default BENCH_rtr.json)
     BENCH_FANOUT_SESSIONS
                   comma-separated session counts for the encode-once
                   fan-out scale bench (default 1000,10000,100000)
     BENCH_FANOUT_JSON
                   output path for the machine-readable fan-out bench
                   (default BENCH_rtr_fanout.json)
     BENCH_ARENA_REPEATS
                   timed repetitions per arena-vs-record workload; the
                   minimum wall is kept on both sides (default 3)
     BENCH_ARENA_JSON
                   output path for the machine-readable arena-vs-record
                   comparison (default BENCH_arena.json)
     BENCH_CHURN_SCALE
                   dataset scale for the live-churn timeline replay
                   (default 0.05)
     BENCH_CHURN_ROUTERS
                   router sessions for the live-churn RTR fan-out run
                   (default 50)
     BENCH_CHURN_JSON
                   output path for the machine-readable live-churn
                   benchmark (default BENCH_churn.json) *)

let getenv_float name default =
  match Sys.getenv_opt name with
  | Some s -> (try float_of_string s with Failure _ -> default)
  | None -> default

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try int_of_string s with Failure _ -> default)
  | None -> default

let scale = getenv_float "BENCH_SCALE" 1.0
let fig3_scale = getenv_float "FIG3_SCALE" 0.25
let seed = getenv_int "BENCH_SEED" 42
let domains = Parallel.Pool.default_domains ()

let json_path =
  match Sys.getenv_opt "BENCH_JSON" with
  | Some p when p <> "" -> p
  | Some _ | None -> "BENCH_compress.json"

let validate_json_path =
  match Sys.getenv_opt "BENCH_VALIDATE_JSON" with
  | Some p when p <> "" -> p
  | Some _ | None -> "BENCH_validate.json"

let rtr_seeds = getenv_int "BENCH_RTR_SEEDS" 50

let rtr_json_path =
  match Sys.getenv_opt "BENCH_RTR_JSON" with
  | Some p when p <> "" -> p
  | Some _ | None -> "BENCH_rtr.json"

let fanout_sessions =
  match Sys.getenv_opt "BENCH_FANOUT_SESSIONS" with
  | Some s when String.trim s <> "" ->
    String.split_on_char ',' s
    |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))
    |> List.filter (fun n -> n > 0)
  | Some _ | None -> [ 1_000; 10_000; 100_000 ]

let fanout_json_path =
  match Sys.getenv_opt "BENCH_FANOUT_JSON" with
  | Some p when p <> "" -> p
  | Some _ | None -> "BENCH_rtr_fanout.json"

let arena_repeats = max 1 (getenv_int "BENCH_ARENA_REPEATS" 3)
let churn_scale = getenv_float "BENCH_CHURN_SCALE" 0.05
let churn_routers = max 1 (getenv_int "BENCH_CHURN_ROUTERS" 50)

let churn_json_path =
  match Sys.getenv_opt "BENCH_CHURN_JSON" with
  | Some p when p <> "" -> p
  | Some _ | None -> "BENCH_churn.json"

let arena_json_path =
  match Sys.getenv_opt "BENCH_ARENA_JSON" with
  | Some p when p <> "" -> p
  | Some _ | None -> "BENCH_arena.json"

let only_sections =
  match Sys.getenv_opt "BENCH_ONLY" with
  | None | Some "" -> None
  | Some s ->
    Some (String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) ""))

let section_enabled name =
  match only_sections with
  | None -> true
  | Some names -> List.exists (String.equal name) names

let banner title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* --- paper-vs-measured sections --- *)

let section6 snap =
  banner "Section 6: measurements (paper values are for 2017-06-01 at scale 1.0)";
  let s = Mlcore.Analysis.measure snap in
  print_endline (Mlcore.Report.render_stats s);
  Printf.printf
    "\n\
     \  paper: 12%% of ROA prefixes use maxLength          measured: %.1f%%\n\
     \  paper: 84%% of those are vulnerable (non-minimal)  measured: %.1f%%\n\
     \  paper: +13K prefixes / +33%% PDUs to go minimal    measured: +%d / +%.1f%%\n\
     \  paper: full-deployment compression bound 6.2%%     measured: %.1f%%\n"
    (100.0 *. Mlcore.Analysis.maxlen_usage_fraction s)
    (100.0 *. Mlcore.Analysis.vulnerable_fraction s)
    s.Mlcore.Analysis.additional_prefixes
    (100.0 *. Mlcore.Analysis.pdu_increase_fraction s)
    (100.0 *. s.Mlcore.Analysis.max_compression)

let audit snap =
  banner "Section 8: corpus audit (what an RIR portal should tell its users)";
  let stats =
    Mlcore.Advisor.corpus_stats snap.Dataset.Snapshot.table snap.Dataset.Snapshot.roas
  in
  Format.printf "  %a@." Mlcore.Advisor.pp_corpus_stats stats

let table1 snap =
  banner (Printf.sprintf "Table 1: # PDUs processed by routers (scale %.3f)" scale);
  let rows = Mlcore.Scenario.table1 snap in
  print_string (Mlcore.Report.render_table1 ~scale rows);
  let pdus label =
    match List.find_opt (fun (r : Mlcore.Scenario.row) -> r.Mlcore.Scenario.label = label) rows with
    | Some r -> Some r.Mlcore.Scenario.pdus
    | None -> None
  in
  (match pdus "Today", pdus "Today (compressed)" with
   | Some before, Some after ->
     Printf.printf "  status-quo compression: %.2f%% (paper: 15.90%%)\n"
       (100.0 *. Mlcore.Compress.compression_ratio ~before ~after)
   | _ -> ());
  (match
     pdus "Today, minimal ROAs, no maxLength", pdus "Today, minimal ROAs, with maxLength (compressed)"
   with
   | Some before, Some after ->
     Printf.printf "  hardened compression:   %.2f%% (paper: 6.5%%)\n"
       (100.0 *. Mlcore.Compress.compression_ratio ~before ~after)
   | _ -> ())

let figure3 () =
  let weeks = Dataset.Timeline.generate ~params:(Dataset.Snapshot.scaled fig3_scale) ~seed () in
  banner (Printf.sprintf "Figure 3a: today's RPKI deployment (scale %.3f)" fig3_scale);
  print_string
    (Mlcore.Report.render_series ~title:"Number of PDUs per weekly snapshot"
       (Mlcore.Scenario.figure3a weeks));
  banner (Printf.sprintf "Figure 3b: RPKI in full deployment (scale %.3f)" fig3_scale);
  print_string
    (Mlcore.Report.render_series ~title:"Number of PDUs per weekly snapshot"
       (Mlcore.Scenario.figure3b weeks))

let attack_eval () =
  banner "Sections 4-5: attack evaluation (1000-AS synthetic topology)";
  print_string (Experiments.Hijack_eval.hijack_table ~seed ~n_as:1000 ~rov:1.0 ~trials:10);
  print_newline ();
  print_string (Experiments.Hijack_eval.aspa_comparison ~seed ~n_as:1000 ~trials:10);
  print_newline ();
  print_string
    (Experiments.Hijack_eval.render_rov_sweep
       (Experiments.Hijack_eval.rov_sweep ~seed ~n_as:1000 ~trials:10
          ~fractions:[ 0.0; 0.25; 0.5; 0.75; 1.0 ]));
  print_newline ();
  print_endline
    "  paper claims reproduced: the forged-origin subprefix hijack on a\n\
     \  non-minimal ROA is Valid and captures ~100%; on a minimal ROA it is\n\
     \  Invalid and captures 0%; the traditional forged-origin fallback splits\n\
     \  traffic with the majority staying on the legitimate route."

(* Section 7.2-style wall-clock + allocation measurement, with a
   machine-readable trajectory file (BENCH_compress.json) that later
   PRs regress against. Compression runs on one domain (DESIGN.md §7).
   The paper reports 2.4 s / 19 MB today-scale and 36 s / 290 MB
   full-scale on an i7-6700; absolute numbers differ by machine and
   implementation, the scaling shape is the claim. *)

type compress_result = {
  c_name : string;
  c_in : int;
  c_out : int;
  c_pct : float; (* compression, percent *)
  c_wall : float;
}

let bench_compress_dataset (name, vrps) =
  let bytes_before = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let _, stats = Mlcore.Compress.run_with_stats vrps in
  let wall = Unix.gettimeofday () -. t0 in
  let mb = (Gc.allocated_bytes () -. bytes_before) /. 1_048_576.0 in
  Printf.printf "  %-24s %8d -> %8d tuples   %7.2f s wall   %8.1f MB allocated\n" name
    stats.Mlcore.Compress.input stats.Mlcore.Compress.output wall mb;
  Format.printf "  %-24s (%a)@." "" Mlcore.Compress.pp_stats stats;
  { c_name = name;
    c_in = stats.Mlcore.Compress.input;
    c_out = stats.Mlcore.Compress.output;
    c_pct =
      100.0
      *. Mlcore.Compress.compression_ratio ~before:stats.Mlcore.Compress.input
           ~after:stats.Mlcore.Compress.output;
    c_wall = wall }

(* Hand-rolled JSON writer — the schema is flat and we take no
   dependency for it. Documented in README.md. *)
let write_bench_json path results =
  let buf = Buffer.create 2048 in
  let spf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  spf "{\n";
  spf "  \"schema\": \"rpki-maxlen/bench-compress/v2\",\n";
  spf "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  spf "  \"word_size\": %d,\n" Sys.word_size;
  spf "  \"seed\": %d,\n" seed;
  spf "  \"scale\": %g,\n" scale;
  spf "  \"datasets\": [\n";
  List.iteri
    (fun i r ->
      spf "    {\n";
      spf "      \"name\": %S,\n" r.c_name;
      spf "      \"tuples_in\": %d,\n" r.c_in;
      spf "      \"tuples_out\": %d,\n" r.c_out;
      spf "      \"compression_pct\": %.4f,\n" r.c_pct;
      spf "      \"wall_s\": %.6f\n" r.c_wall;
      spf "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  spf "  ]\n";
  spf "}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let section72 snap =
  banner "Section 7.2: compress_roas computational cost";
  let results =
    List.map bench_compress_dataset
      [ ("today", Dataset.Snapshot.vrps snap);
        ("full_deployment", Mlcore.Minimal.full_deployment_vrps snap.Dataset.Snapshot.table) ]
  in
  write_bench_json json_path results;
  Printf.printf "  (paper, i7-6700: today 2.4 s / 19 MB; full deployment 36 s / 290 MB)\n";
  Printf.printf "  wrote %s\n" json_path

(* --- bulk validation data path (BENCH_validate.json) --- *)

(* Always probe 2 and 4 domains (the acceptance axis), plus whatever
   RPKI_DOMAINS asks for. *)
let parallel_domain_counts =
  List.sort_uniq Int.compare (List.filter (fun d -> d > 1) [ 2; 4; domains ])

(* Bulk sweeps over the hot read-side queries the Patricia index
   serves: RFC 6811 origin validation of every announced (prefix,
   origin) pair, the same-origin-ancestor query behind
   max_permissive_vrps, and the is_minimal_vrp subtree sweep. Each
   workload reduces per-query results to an int checksum; parallel
   runs (the trie is read-only here, so concurrent lookups are safe)
   must reproduce the sequential checksum exactly. *)

type v_run = { v_domains : int; v_wall : float; v_agrees : bool }

type v_result = {
  v_name : string;
  v_queries : int;
  v_seq_wall : float;
  v_runs : v_run list;
}

let ns_per_query wall queries =
  if queries > 0 then wall *. 1e9 /. float_of_int queries else 0.0

(* [f] maps one element to an int; the checksum is the sum over the
   array, computed element-wise so the parallel path can reuse [f]
   unchanged via parallel_map. *)
let bench_validate_workload name arr f =
  let queries = Array.length arr in
  let sum = Array.fold_left ( + ) 0 in
  let t0 = Unix.gettimeofday () in
  let expected = sum (Array.map f arr) in
  let seq_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "  %-28s %8d queries   seq %7.3f s   %10.1f ns/query\n" name queries seq_wall
    (ns_per_query seq_wall queries);
  let runs =
    List.map
      (fun d ->
        let t0 = Unix.gettimeofday () in
        let got =
          sum (Parallel.Pool.parallel_map ~domains:d ~f arr)
        in
        let wall = Unix.gettimeofday () -. t0 in
        let agrees = got = expected in
        Printf.printf "  %-28s %d domains: %7.3f s   speedup %5.2fx   %s\n" "" d wall
          (if wall > 0.0 then seq_wall /. wall else 0.0)
          (if agrees then "agrees" else "DIVERGED");
        { v_domains = d; v_wall = wall; v_agrees = agrees })
      parallel_domain_counts
  in
  { v_name = name; v_queries = queries; v_seq_wall = seq_wall; v_runs = runs }

(* Same hand-rolled style as [write_bench_json]; schema documented in
   README.md. *)
let write_validate_json path results =
  let buf = Buffer.create 2048 in
  let spf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  spf "{\n";
  spf "  \"schema\": \"rpki-maxlen/bench-validate/v1\",\n";
  spf "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  spf "  \"word_size\": %d,\n" Sys.word_size;
  spf "  \"seed\": %d,\n" seed;
  spf "  \"scale\": %g,\n" scale;
  spf "  \"rpki_domains\": %d,\n" domains;
  spf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      spf "    {\n";
      spf "      \"name\": %S,\n" r.v_name;
      spf "      \"queries\": %d,\n" r.v_queries;
      spf "      \"sequential\": { \"domains\": 1, \"wall_s\": %.6f, \"ns_per_query\": %.1f },\n"
        r.v_seq_wall
        (ns_per_query r.v_seq_wall r.v_queries);
      spf "      \"parallel\": [\n";
      List.iteri
        (fun j run ->
          spf
            "        { \"domains\": %d, \"wall_s\": %.6f, \"speedup\": %.4f, \"agrees\": %b }%s\n"
            run.v_domains run.v_wall
            (if run.v_wall > 0.0 then r.v_seq_wall /. run.v_wall else 0.0)
            run.v_agrees
            (if j = List.length r.v_runs - 1 then "" else ","))
        r.v_runs;
      spf "      ]\n";
      spf "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  spf "  ]\n";
  spf "}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let section_validate snap =
  banner "Validation data path: bulk queries over the path-compressed index";
  let table = snap.Dataset.Snapshot.table in
  let vrps = Dataset.Snapshot.vrps snap in
  let db = Rpki.Validation.create vrps in
  let pairs = Array.of_list (Dataset.Bgp_table.pairs table) in
  let vrps_arr = Array.of_list vrps in
  let state_code = function
    | Rpki.Validation.Valid -> 1
    | Rpki.Validation.Invalid -> 2
    | Rpki.Validation.Not_found -> 3
  in
  (* explicit lets: list literals evaluate right-to-left, which would
     interleave the progress output out of order *)
  let r_validate =
    bench_validate_workload "validation/bulk-validate" pairs (fun (p, a) ->
        state_code (Rpki.Validation.validate db p a))
  in
  let r_ancestor =
    bench_validate_workload "bgp_table/bulk-ancestor" pairs (fun (p, a) ->
        if Dataset.Bgp_table.has_same_origin_ancestor table p a then 1 else 0)
  in
  let r_minimal =
    bench_validate_workload "minimal/is-minimal-sweep" vrps_arr (fun v ->
        if Mlcore.Minimal.is_minimal_vrp table v then 1 else 0)
  in
  let results = [ r_validate; r_ancestor; r_minimal ] in
  write_validate_json validate_json_path results;
  Printf.printf "  wrote %s\n" validate_json_path;
  if List.exists (fun r -> List.exists (fun run -> not run.v_agrees) r.v_runs) results
  then begin
    prerr_endline "BENCH FAILURE: parallel validation results diverged from sequential";
    exit 1
  end

(* --- arena vs record data plane (BENCH_arena.json) --- *)

(* The PR-7 acceptance bench: the flat-arena data plane (Validation,
   Bgp_table, Compress) against the retained record-backed oracles
   (Validation_oracle, Bgp_table_ref, Compress.run_reference). Every
   per-query output is compared element-wise — not just a checksum —
   and the section fails hard if the arena disagrees anywhere or is
   not strictly faster than the record path (minimum wall over
   [arena_repeats] repetitions on both sides, so a single noisy run
   cannot flip the verdict either way). *)

type a_run = { a_domains : int; a_wall : float; a_agrees : bool }

type a_result = {
  a_name : string;
  a_queries : int;
  a_record_wall : float;
  a_arena_wall : float;
  a_agree : bool;
  a_runs : a_run list; (* the arena side at 2+ domains; empty for compress *)
}

(* Each repeat starts from a fully settled heap: with the snapshot's
   large live set resident, mark/sweep debt left by the previous run
   (or by the other side's runs) otherwise taxes this run's
   allocations with GC work that isn't its own — the record and arena
   sides would contaminate each other's walls in whichever order they
   were timed. [Gc.full_major], not [Gc.major]: one finished cycle
   still leaves the previous run's garbage unswept (it died after that
   cycle's mark snapshot), and the leftover sweep lands mid-repeat.

   A sub-50ms workload is additionally batched: one stray scheduler
   preemption or major slice is the same order as the whole wall, so a
   single-run minimum is a coin flip at small bench scales. Looping to
   a ~50ms floor and averaging amortizes the spikes identically for
   both sides. *)
let min_wall f =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let est = Unix.gettimeofday () -. t0 in
  let iters =
    if est >= 0.05 then 1 else min 64 (int_of_float (ceil (0.05 /. Float.max est 1e-6)))
  in
  let best = ref infinity in
  for _ = 1 to arena_repeats do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let w = (Unix.gettimeofday () -. t0) /. float_of_int iters in
    if w < !best then best := w
  done;
  !best

(* [record] and [arena] both map a query index to a small int code.
   Agreement is element-wise over the full code arrays; the timed runs
   fill a preallocated scratch array so neither side pays allocation
   the other doesn't. *)
let bench_arena_workload name queries ~record ~arena =
  let record_codes = Array.init queries record in
  let arena_codes = Array.init queries arena in
  let agree = Array.for_all2 Int.equal record_codes arena_codes in
  let scratch = Array.make (max queries 1) 0 in
  let fill f () =
    for i = 0 to queries - 1 do
      scratch.(i) <- f i
    done
  in
  let record_wall = min_wall (fill record) in
  let arena_wall = min_wall (fill arena) in
  Printf.printf
    "  %-28s %8d queries   record %8.1f ns/q   arena %8.1f ns/q   %5.2fx   %s\n" name queries
    (ns_per_query record_wall queries)
    (ns_per_query arena_wall queries)
    (if arena_wall > 0.0 then record_wall /. arena_wall else 0.0)
    (if agree then "identical" else "DIVERGED");
  let idx = Array.init queries Fun.id in
  let sum = Array.fold_left ( + ) 0 in
  let expected = sum arena_codes in
  let runs =
    List.map
      (fun d ->
        Gc.major ();
        let t0 = Unix.gettimeofday () in
        let got =
          sum (Parallel.Pool.parallel_map ~domains:d ~f:arena idx)
        in
        let wall = Unix.gettimeofday () -. t0 in
        let agrees = got = expected in
        Printf.printf "  %-28s %d domains: %7.3f s   speedup %5.2fx   %s\n" "" d wall
          (if wall > 0.0 then arena_wall /. wall else 0.0)
          (if agrees then "agrees" else "DIVERGED");
        { a_domains = d; a_wall = wall; a_agrees = agrees })
      parallel_domain_counts
  in
  { a_name = name;
    a_queries = queries;
    a_record_wall = record_wall;
    a_arena_wall = arena_wall;
    a_agree = agree;
    a_runs = runs }

(* Whole-pipeline comparison: the arena compress against the
   record-path reference, outputs compared as full VRP lists.
   Compression runs on one domain, so there are no parallel runs. *)
let bench_arena_compress (name, vrps) =
  let record_out = Mlcore.Compress.run_reference vrps in
  let arena_out = Mlcore.Compress.run vrps in
  let agree = List.equal Rpki.Vrp.equal record_out arena_out in
  let record_wall = min_wall (fun () -> Mlcore.Compress.run_reference vrps) in
  let arena_wall = min_wall (fun () -> Mlcore.Compress.run vrps) in
  Printf.printf "  %-28s %8d tuples    record %8.3f s     arena %8.3f s     %5.2fx   %s\n" name
    (List.length vrps) record_wall arena_wall
    (if arena_wall > 0.0 then record_wall /. arena_wall else 0.0)
    (if agree then "identical" else "DIVERGED");
  { a_name = name;
    a_queries = List.length vrps;
    a_record_wall = record_wall;
    a_arena_wall = arena_wall;
    a_agree = agree;
    a_runs = [] }

(* Same hand-rolled style as [write_bench_json]; schema documented in
   README.md. *)
let write_arena_json path results =
  let outputs_agree =
    List.for_all (fun r -> r.a_agree && List.for_all (fun run -> run.a_agrees) r.a_runs) results
  in
  let arena_faster = List.for_all (fun r -> r.a_arena_wall < r.a_record_wall) results in
  let buf = Buffer.create 2048 in
  let spf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  spf "{\n";
  spf "  \"schema\": \"rpki-maxlen/bench-arena/v1\",\n";
  spf "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  spf "  \"word_size\": %d,\n" Sys.word_size;
  spf "  \"seed\": %d,\n" seed;
  spf "  \"scale\": %g,\n" scale;
  spf "  \"repeats\": %d,\n" arena_repeats;
  spf "  \"rpki_domains\": %d,\n" domains;
  spf "  \"outputs_agree\": %b,\n" outputs_agree;
  spf "  \"arena_faster\": %b,\n" arena_faster;
  spf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      spf "    {\n";
      spf "      \"name\": %S,\n" r.a_name;
      spf "      \"queries\": %d,\n" r.a_queries;
      spf "      \"record\": { \"wall_s\": %.6f, \"ns_per_query\": %.1f },\n" r.a_record_wall
        (ns_per_query r.a_record_wall r.a_queries);
      spf "      \"arena\": { \"wall_s\": %.6f, \"ns_per_query\": %.1f },\n" r.a_arena_wall
        (ns_per_query r.a_arena_wall r.a_queries);
      spf "      \"speedup_vs_record\": %.4f,\n"
        (if r.a_arena_wall > 0.0 then r.a_record_wall /. r.a_arena_wall else 0.0);
      spf "      \"outputs_identical\": %b,\n" r.a_agree;
      spf "      \"parallel\": [\n";
      List.iteri
        (fun j run ->
          spf
            "        { \"domains\": %d, \"wall_s\": %.6f, \"speedup\": %.4f, \"agrees\": %b }%s\n"
            run.a_domains run.a_wall
            (if run.a_wall > 0.0 then r.a_arena_wall /. run.a_wall else 0.0)
            run.a_agrees
            (if j = List.length r.a_runs - 1 then "" else ","))
        r.a_runs;
      spf "      ]\n";
      spf "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  spf "  ]\n";
  spf "}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let section_arena snap =
  banner
    (Printf.sprintf
       "Arena data plane: flat-arena store vs record oracle (min of %d runs each)" arena_repeats);
  let table = snap.Dataset.Snapshot.table in
  let vrps = Dataset.Snapshot.vrps snap in
  let pairs = Array.of_list (Dataset.Bgp_table.pairs table) in
  let n = Array.length pairs in
  let adb = Rpki.Validation.create vrps in
  let odb = Rpki.Validation_oracle.create vrps in
  let rtable = Dataset.Bgp_table_ref.create () in
  Array.iter (fun (p, a) -> Dataset.Bgp_table_ref.add rtable p a) pairs;
  let state_code = function
    | Rpki.Validation.Valid -> 1
    | Rpki.Validation.Invalid -> 2
    | Rpki.Validation.Not_found -> 3
  in
  let r_validate =
    bench_arena_workload "validation/bulk-validate" n
      ~record:(fun i ->
        let p, a = pairs.(i) in
        state_code (Rpki.Validation_oracle.validate odb p a))
      ~arena:(fun i ->
        let p, a = pairs.(i) in
        state_code (Rpki.Validation.validate adb p a))
  in
  let r_ancestor =
    bench_arena_workload "bgp_table/bulk-ancestor" n
      ~record:(fun i ->
        let p, a = pairs.(i) in
        if Dataset.Bgp_table_ref.has_same_origin_ancestor rtable p a then 1 else 0)
      ~arena:(fun i ->
        let p, a = pairs.(i) in
        if Dataset.Bgp_table.has_same_origin_ancestor table p a then 1 else 0)
  in
  let r_covering =
    bench_arena_workload "validation/covering-count" n
      ~record:(fun i -> Rpki.Validation_oracle.covering_count odb (fst pairs.(i)))
      ~arena:(fun i -> Rpki.Validation.covering_count adb (fst pairs.(i)))
  in
  let r_compress = bench_arena_compress ("compress/today", vrps) in
  let r_compress_full =
    bench_arena_compress
      ("compress/full_deployment", Mlcore.Minimal.full_deployment_vrps table)
  in
  let results = [ r_validate; r_ancestor; r_covering; r_compress; r_compress_full ] in
  write_arena_json arena_json_path results;
  Printf.printf "  wrote %s\n" arena_json_path;
  if
    List.exists
      (fun r -> (not r.a_agree) || List.exists (fun run -> not run.a_agrees) r.a_runs)
      results
  then begin
    prerr_endline "BENCH FAILURE: arena output diverged from the record oracle";
    exit 1
  end;
  if List.exists (fun r -> r.a_arena_wall >= r.a_record_wall) results then begin
    prerr_endline "BENCH FAILURE: arena path not strictly faster than the record path";
    exit 1
  end

(* --- RTR fault-injection sweep (BENCH_rtr.json) --- *)

(* The netsim acceptance sweep as a measured artifact: [rtr_seeds]
   seeds per fault policy, each run checked against the convergence
   invariant (every non-degraded router ends on the cache's exact
   final VRP set, degradation is explicit), plus one replay per policy
   proving the sweep is deterministic. *)

type rtr_row = {
  r_policy : string;
  r_runs : int;
  r_ok : int;
  r_routers : int;
  r_fresh : int; (* Fresh with the exact final set *)
  r_stale : int;
  r_degraded : int; (* Expired / No_data: explicit degraded mode *)
  r_reconnects : int;
  r_framer_errors : int;
  r_tainted : int; (* deliveries flagged as stream damage *)
  r_events : int;
  r_wall : float;
  r_replay_ok : bool;
}

let bench_rtr_policy policy =
  let module Sim = Netsim.Rtr_sim in
  let module Fault = Netsim.Fault in
  let ok = ref 0 and routers = ref 0 and fresh = ref 0 and stale = ref 0 in
  let degraded = ref 0 and reconnects = ref 0 and framer_errors = ref 0 in
  let tainted = ref 0 and events = ref 0 in
  let t0 = Unix.gettimeofday () in
  for s = 1 to rtr_seeds do
    let r = Sim.run ~seed:s ~policy () in
    if r.Sim.ok then incr ok;
    framer_errors := !framer_errors + r.Sim.framer_errors;
    tainted := !tainted + r.Sim.link.Netsim.Link.tainted;
    events := !events + r.Sim.events;
    List.iter
      (fun o ->
        incr routers;
        reconnects := !reconnects + o.Sim.reconnects;
        match o.Sim.freshness with
        | Rtr.Router_client.Fresh when o.Sim.vrps_ok -> incr fresh
        | Rtr.Router_client.Stale when o.Sim.vrps_ok -> incr stale
        | Rtr.Router_client.Fresh | Rtr.Router_client.Stale ->
          (* [Sim.ok] already failed for this run; count it degraded
             so the fresh/stale columns stay truthful. *)
          incr degraded
        | Rtr.Router_client.Expired | Rtr.Router_client.No_data -> incr degraded)
      r.Sim.outcomes
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let replay_ok =
    let a = Sim.run ~seed:1 ~policy () in
    let b = Sim.run ~seed:1 ~policy () in
    String.equal a.Sim.fingerprint b.Sim.fingerprint
  in
  Printf.printf
    "  %-12s %3d/%3d ok   routers: %3d fresh / %2d stale / %2d degraded   reconnects %4d   \
     tainted %5d   %6.2f s   replay %s\n"
    policy.Fault.name !ok rtr_seeds !fresh !stale !degraded !reconnects !tainted wall
    (if replay_ok then "ok" else "DIVERGED");
  { r_policy = policy.Fault.name;
    r_runs = rtr_seeds;
    r_ok = !ok;
    r_routers = !routers;
    r_fresh = !fresh;
    r_stale = !stale;
    r_degraded = !degraded;
    r_reconnects = !reconnects;
    r_framer_errors = !framer_errors;
    r_tainted = !tainted;
    r_events = !events;
    r_wall = wall;
    r_replay_ok = replay_ok }

(* Same hand-rolled style as [write_bench_json]; schema documented in
   README.md. *)
let write_rtr_json path rows =
  let all_ok = List.for_all (fun r -> r.r_ok = r.r_runs) rows in
  let deterministic = List.for_all (fun r -> r.r_replay_ok) rows in
  let buf = Buffer.create 2048 in
  let spf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  spf "{\n";
  spf "  \"schema\": \"rpki-maxlen/bench-rtr/v1\",\n";
  spf "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  spf "  \"word_size\": %d,\n" Sys.word_size;
  spf "  \"seeds_per_policy\": %d,\n" rtr_seeds;
  spf "  \"all_ok\": %b,\n" all_ok;
  spf "  \"deterministic\": %b,\n" deterministic;
  spf "  \"policies\": [\n";
  List.iteri
    (fun i r ->
      spf "    {\n";
      spf "      \"policy\": %S,\n" r.r_policy;
      spf "      \"runs\": %d,\n" r.r_runs;
      spf "      \"ok\": %d,\n" r.r_ok;
      spf "      \"routers\": %d,\n" r.r_routers;
      spf "      \"fresh\": %d,\n" r.r_fresh;
      spf "      \"stale\": %d,\n" r.r_stale;
      spf "      \"degraded\": %d,\n" r.r_degraded;
      spf "      \"reconnects\": %d,\n" r.r_reconnects;
      spf "      \"framer_errors\": %d,\n" r.r_framer_errors;
      spf "      \"tainted_deliveries\": %d,\n" r.r_tainted;
      spf "      \"events\": %d,\n" r.r_events;
      spf "      \"wall_s\": %.6f,\n" r.r_wall;
      spf "      \"replay_ok\": %b\n" r.r_replay_ok;
      spf "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  spf "  ]\n";
  spf "}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let section_rtr () =
  banner
    (Printf.sprintf "RTR fault-injection sweep (%d seeds x %d policies)" rtr_seeds
       (List.length Netsim.Fault.all));
  let rows = List.map bench_rtr_policy Netsim.Fault.all in
  write_rtr_json rtr_json_path rows;
  Printf.printf "  wrote %s\n" rtr_json_path;
  if List.exists (fun r -> r.r_ok <> r.r_runs) rows then begin
    prerr_endline "BENCH FAILURE: an RTR simulation violated the convergence invariant";
    exit 1
  end;
  if List.exists (fun r -> not r.r_replay_ok) rows then begin
    prerr_endline "BENCH FAILURE: an RTR simulation replay diverged (determinism lost)";
    exit 1
  end

(* --- encode-once fan-out scale bench (BENCH_rtr_fanout.json) --- *)

(* One cache, N router sessions on a heterogeneous fleet (perfect,
   rechunking and delaying links interleaved), driven through the full
   scripted publication sequence. The point being measured: serving N
   sessions costs exactly one delta encode per serial bump — the run
   fails hard if [delta_encodes <> publishes] — while throughput is
   reported as sessions simulated per wall-clock second and
   time-to-Fresh percentiles after the last publication. *)

type fanout_row = {
  f_sessions : int;
  f_publishes : int;
  f_delta_encodes : int;
  f_snapshot_encodes : int;
  f_merge_encodes : int;
  f_bytes_per_router : float;
  f_retained_bytes : int;
  f_fresh : int;
  f_stale : int;
  f_degraded : int;
  f_p50_ms : int;
  f_p99_ms : int;
  f_events : int;
  f_wall : float;
  f_sessions_per_s : float;
}

let fanout_mix = Netsim.Fault.[ perfect; rechunking; delaying ]

(* Nearest-rank percentile over a sorted array; 0 when no router
   reached the final set (every such run also fails the freshness
   check below, so the 0 can never masquerade as a good result). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let bench_fanout sessions =
  let module Sim = Netsim.Rtr_sim in
  let config = { Sim.default_config with Sim.routers = sessions; trace = false } in
  let t0 = Unix.gettimeofday () in
  let r = Sim.run ~config ~mix:fanout_mix ~seed ~policy:Netsim.Fault.perfect () in
  let wall = Unix.gettimeofday () -. t0 in
  let fresh = ref 0 and stale = ref 0 and degraded = ref 0 in
  let to_fresh =
    List.filter_map
      (fun o ->
        (match o.Sim.freshness with
         | Rtr.Router_client.Fresh when o.Sim.vrps_ok -> incr fresh
         | Rtr.Router_client.Stale when o.Sim.vrps_ok -> incr stale
         | _ -> incr degraded);
        Option.map (fun t -> max 0 (t - r.Sim.last_publish)) o.Sim.first_final)
      r.Sim.outcomes
    |> Array.of_list
  in
  Array.sort Int.compare to_fresh;
  let stats = r.Sim.cache_stats in
  let row =
    { f_sessions = sessions;
      f_publishes = r.Sim.publishes;
      f_delta_encodes = stats.Rtr.Cache_server.delta_encodes;
      f_snapshot_encodes = stats.Rtr.Cache_server.snapshot_encodes;
      f_merge_encodes = stats.Rtr.Cache_server.merge_encodes;
      f_bytes_per_router = float_of_int r.Sim.link.Netsim.Link.bytes /. float_of_int sessions;
      f_retained_bytes = r.Sim.cache_retained_bytes;
      f_fresh = !fresh;
      f_stale = !stale;
      f_degraded = !degraded;
      f_p50_ms = percentile to_fresh 0.50;
      f_p99_ms = percentile to_fresh 0.99;
      f_events = r.Sim.events;
      f_wall = wall;
      f_sessions_per_s = float_of_int sessions /. wall }
  in
  Printf.printf
    "  %7d sessions   %2d publishes / %2d delta encodes   %8.0f bytes/router   %6d fresh / \
     %d stale / %d degraded   p50 %5d ms  p99 %5d ms   %7.2f s  (%8.0f sessions/s)\n"
    sessions r.Sim.publishes stats.Rtr.Cache_server.delta_encodes row.f_bytes_per_router !fresh
    !stale !degraded row.f_p50_ms row.f_p99_ms wall row.f_sessions_per_s;
  row

(* Same hand-rolled style as [write_bench_json]; schema documented in
   README.md. *)
let write_fanout_json path rows =
  let encode_once_ok = List.for_all (fun r -> r.f_delta_encodes = r.f_publishes) rows in
  let buf = Buffer.create 2048 in
  let spf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  spf "{\n";
  spf "  \"schema\": \"rpki-maxlen/bench-rtr-fanout/v1\",\n";
  spf "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  spf "  \"word_size\": %d,\n" Sys.word_size;
  spf "  \"seed\": %d,\n" seed;
  spf "  \"mix\": [%s],\n"
    (String.concat ", " (List.map (fun p -> Printf.sprintf "%S" p.Netsim.Fault.name) fanout_mix));
  spf "  \"encode_once_ok\": %b,\n" encode_once_ok;
  spf "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      spf "    {\n";
      spf "      \"sessions\": %d,\n" r.f_sessions;
      spf "      \"publishes\": %d,\n" r.f_publishes;
      spf "      \"delta_encodes\": %d,\n" r.f_delta_encodes;
      spf "      \"snapshot_encodes\": %d,\n" r.f_snapshot_encodes;
      spf "      \"merge_encodes\": %d,\n" r.f_merge_encodes;
      spf "      \"bytes_per_router\": %.1f,\n" r.f_bytes_per_router;
      spf "      \"cache_retained_bytes\": %d,\n" r.f_retained_bytes;
      spf "      \"fresh\": %d,\n" r.f_fresh;
      spf "      \"stale\": %d,\n" r.f_stale;
      spf "      \"degraded\": %d,\n" r.f_degraded;
      spf "      \"p50_to_fresh_ms\": %d,\n" r.f_p50_ms;
      spf "      \"p99_to_fresh_ms\": %d,\n" r.f_p99_ms;
      spf "      \"events\": %d,\n" r.f_events;
      spf "      \"wall_s\": %.6f,\n" r.f_wall;
      spf "      \"sessions_per_s\": %.1f\n" r.f_sessions_per_s;
      spf "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  spf "  ]\n";
  spf "}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let section_fanout () =
  banner
    (Printf.sprintf "Encode-once RTR fan-out: one cache, sessions at %s"
       (String.concat "/" (List.map string_of_int fanout_sessions)));
  let rows = List.map bench_fanout fanout_sessions in
  write_fanout_json fanout_json_path rows;
  Printf.printf "  wrote %s\n" fanout_json_path;
  List.iter
    (fun r ->
      if r.f_delta_encodes <> r.f_publishes then begin
        Printf.eprintf
          "BENCH FAILURE: %d sessions took %d delta encodes for %d publishes — the \
           encode-once invariant is broken\n"
          r.f_sessions r.f_delta_encodes r.f_publishes;
        exit 1
      end;
      (* The scale runs must stay a working deployment, not just a fast
         one: at least 90%% of the fleet ends Fresh on the exact set. *)
      if r.f_fresh * 10 < r.f_sessions * 9 then begin
        Printf.eprintf "BENCH FAILURE: only %d of %d sessions ended Fresh\n" r.f_fresh
          r.f_sessions;
        exit 1
      end)
    rows

(* --- live churn: incremental engine vs batch recompute (BENCH_churn.json) --- *)

(* The timeline replayed as an event stream: the incremental engine
   (Rpki.Churn) absorbs each week-to-week diff and re-serves
   validation, minimality and the compressed ROA set, while the batch
   side rebuilds all of it from scratch on every transition — the cost
   a cache pays without incrementality. Two hard gates: the
   incremental compressed/valid/non-minimal state must be identical to
   batch at every transition, and the total incremental cost must be
   strictly below the batch-recompute cost at the same scale. The
   final per-transition compressed sets are then fed as the RTR
   publication script, so the fan-out serves the live deltas. *)

type churn_row = {
  h_label : string;
  h_events : int;
  h_bgp_changes : int;
  h_vrp_changes : int;
  h_group_recomputes : int;
  h_incr_wall : float;
  h_batch_wall : float;
  h_identical : bool;
}

let write_churn_json path rows ~total_events ~incr_wall ~batch_wall ~identical
    ~(rtr : Netsim.Rtr_sim.report) =
  let buf = Buffer.create 2048 in
  let spf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let per_event w = if total_events > 0 then w *. 1e9 /. float_of_int total_events else 0.0 in
  spf "{\n";
  spf "  \"schema\": \"rpki-maxlen/bench-churn/v1\",\n";
  spf "  \"ocaml_version\": %S,\n" Sys.ocaml_version;
  spf "  \"word_size\": %d,\n" Sys.word_size;
  spf "  \"seed\": %d,\n" seed;
  spf "  \"churn_scale\": %g,\n" churn_scale;
  spf "  \"transitions\": %d,\n" (List.length rows);
  spf "  \"total_events\": %d,\n" total_events;
  spf "  \"incremental\": { \"wall_s\": %.6f, \"ns_per_event\": %.1f, \"events_per_s\": %.1f },\n"
    incr_wall (per_event incr_wall)
    (if incr_wall > 0.0 then float_of_int total_events /. incr_wall else 0.0);
  spf "  \"batch\": { \"wall_s\": %.6f, \"ns_per_event_amortized\": %.1f },\n" batch_wall
    (per_event batch_wall);
  spf "  \"speedup\": %.2f,\n" (if incr_wall > 0.0 then batch_wall /. incr_wall else 0.0);
  spf "  \"incremental_matches_batch\": %b,\n" identical;
  spf "  \"rtr\": { \"routers\": %d, \"publishes\": %d, \"ok\": %b },\n" churn_routers
    rtr.Netsim.Rtr_sim.publishes rtr.Netsim.Rtr_sim.ok;
  spf "  \"transitions_detail\": [\n";
  List.iteri
    (fun i r ->
      spf
        "    { \"label\": %S, \"events\": %d, \"bgp_changes\": %d, \"vrp_changes\": %d, \
         \"group_recomputes\": %d, \"incremental_wall_s\": %.6f, \"batch_wall_s\": %.6f, \
         \"identical\": %b }%s\n"
        r.h_label r.h_events r.h_bgp_changes r.h_vrp_changes r.h_group_recomputes r.h_incr_wall
        r.h_batch_wall r.h_identical
        (if i = List.length rows - 1 then "" else ","))
    rows;
  spf "  ]\n";
  spf "}\n";
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf))

let bench_churn () =
  banner
    (Printf.sprintf "Live churn: incremental engine vs per-transition batch recompute (scale %g)"
       churn_scale);
  let weeks =
    Dataset.Timeline.generate ~params:(Dataset.Snapshot.scaled churn_scale) ~seed ()
  in
  let weeks_arr = Array.of_list weeks in
  let stream = Dataset.Timeline.event_stream weeks in
  let pairs0, vrps0 = Dataset.Timeline.state_of weeks_arr.(0).Dataset.Timeline.snapshot in
  let t = Rpki.Churn.create ~pairs:pairs0 ~vrps:vrps0 () in
  let script = ref [ Rpki.Churn.compressed t ] in
  let rows =
    List.mapi
      (fun i (label, events) ->
        let before = Rpki.Churn.stats t in
        let t0 = Unix.gettimeofday () in
        List.iter (fun ev -> ignore (Rpki.Churn.apply t ev)) events;
        let incr_compressed = Rpki.Churn.compressed t in
        let incr_wall = Unix.gettimeofday () -. t0 in
        let after = Rpki.Churn.stats t in
        script := incr_compressed :: !script;
        (* Batch side: rebuild everything the engine maintains from the
           target snapshot — validation db, full-table revalidation,
           minimality scan, compression. *)
        let next = weeks_arr.(i + 1).Dataset.Timeline.snapshot in
        let pairs, vrps = Dataset.Timeline.state_of next in
        let table = next.Dataset.Snapshot.table in
        let t1 = Unix.gettimeofday () in
        let db = Rpki.Validation.create vrps in
        let batch_valid =
          List.fold_left
            (fun n (q, origin) -> if Rpki.Validation.authorized db q origin then n + 1 else n)
            0 pairs
        in
        let batch_nonmin =
          List.filter
            (fun w ->
              Rpki.Vrp.uses_max_len w && not (Mlcore.Minimal.is_minimal_vrp table w))
            vrps
        in
        let batch_compressed = Mlcore.Compress.run vrps in
        let batch_wall = Unix.gettimeofday () -. t1 in
        let identical =
          List.equal Rpki.Vrp.equal incr_compressed batch_compressed
          && Rpki.Churn.valid_count t = batch_valid
          && List.equal Rpki.Vrp.equal (Rpki.Churn.non_minimal t) batch_nonmin
          && List.equal Rpki.Vrp.equal (Rpki.Churn.vrps t) vrps
        in
        let row =
          { h_label = label;
            h_events = List.length events;
            h_bgp_changes = after.Rpki.Churn.bgp_changes - before.Rpki.Churn.bgp_changes;
            h_vrp_changes = after.Rpki.Churn.vrp_changes - before.Rpki.Churn.vrp_changes;
            h_group_recomputes =
              after.Rpki.Churn.group_recomputes - before.Rpki.Churn.group_recomputes;
            h_incr_wall = incr_wall;
            h_batch_wall = batch_wall;
            h_identical = identical }
        in
        Printf.printf
          "  %-12s %6d events (%5d bgp, %4d vrp)  %4d groups   incr %8.4f s   batch %8.4f s   \
           identical %b\n"
          label row.h_events row.h_bgp_changes row.h_vrp_changes row.h_group_recomputes incr_wall
          batch_wall identical;
        row)
      stream
  in
  let total_events = List.fold_left (fun n r -> n + r.h_events) 0 rows in
  let incr_wall = List.fold_left (fun w r -> w +. r.h_incr_wall) 0.0 rows in
  let batch_wall = List.fold_left (fun w r -> w +. r.h_batch_wall) 0.0 rows in
  let identical = List.for_all (fun r -> r.h_identical) rows in
  (* The compressed sets just maintained, published over RTR to a
     router fleet: live churn all the way to the wire. *)
  let module Sim = Netsim.Rtr_sim in
  let config =
    { Sim.default_config with
      Sim.routers = churn_routers;
      trace = false;
      script = Some (List.rev !script) }
  in
  let rtr = Sim.run ~config ~mix:fanout_mix ~seed ~policy:Netsim.Fault.perfect () in
  Printf.printf
    "  totals: %d events   incr %.4f s (%.0f ns/event, %.0f events/s)   batch %.4f s \
     (%.0f ns/event amortized)   speedup %.1fx\n"
    total_events incr_wall
    (if total_events > 0 then incr_wall *. 1e9 /. float_of_int total_events else 0.0)
    (if incr_wall > 0.0 then float_of_int total_events /. incr_wall else 0.0)
    batch_wall
    (if total_events > 0 then batch_wall *. 1e9 /. float_of_int total_events else 0.0)
    (if incr_wall > 0.0 then batch_wall /. incr_wall else 0.0);
  Printf.printf "  rtr: %d routers served %d publishes, ok=%b\n" churn_routers
    rtr.Sim.publishes rtr.Sim.ok;
  write_churn_json churn_json_path rows ~total_events ~incr_wall ~batch_wall ~identical ~rtr;
  Printf.printf "  wrote %s\n" churn_json_path;
  if not identical then begin
    prerr_endline
      "BENCH FAILURE: incremental churn state diverged from the batch recompute";
    exit 1
  end;
  if incr_wall >= batch_wall then begin
    Printf.eprintf
      "BENCH FAILURE: incremental churn (%.4f s) is not cheaper than batch recompute (%.4f s)\n"
      incr_wall batch_wall;
    exit 1
  end;
  if not rtr.Sim.ok then begin
    prerr_endline "BENCH FAILURE: the churn-scripted RTR run violated the convergence invariant";
    exit 1
  end

(* --- ablation: Strict vs Paper merge rule --- *)

let ablation snap =
  banner "Ablation: Strict (lossless) vs Paper (verbatim Algorithm 1) merge rule";
  let table = snap.Dataset.Snapshot.table in
  let bound = List.length (Mlcore.Minimal.max_permissive_vrps table) in
  let row name input =
    let n = List.length input in
    let strict = List.length (Mlcore.Compress.run ~mode:Mlcore.Compress.Strict input) in
    let paper = List.length (Mlcore.Compress.run ~mode:Mlcore.Compress.Paper input) in
    Printf.printf "  %-24s %9d | strict %9d (-%5.2f%%) | paper %9d (-%5.2f%%)\n" name n strict
      (100.0 *. Mlcore.Compress.compression_ratio ~before:n ~after:strict)
      paper
      (100.0 *. Mlcore.Compress.compression_ratio ~before:n ~after:paper)
  in
  row "today's RPKI" (Dataset.Snapshot.vrps snap);
  row "full deployment" (Mlcore.Minimal.full_deployment_vrps table);
  Printf.printf
    "  lower bound: %d tuples. Paper mode compresses harder but can authorize\n\
     \  routes the input never did (see EXPERIMENTS.md and test_compress.ml).\n"
    bound

(* --- Bechamel micro-benchmarks --- *)

let run_bechamel tests =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Printf.printf "  %-34s %14.1f ns/run%s\n" name est
              (match Analyze.OLS.r_square ols_result with
               | Some r when r < 0.9 -> Printf.sprintf "  (r2 %.2f)" r
               | Some _ | None -> "")
          | Some _ | None -> Printf.printf "  %-34s (no estimate)\n" name)
        results)
    tests

let micro_benchmarks snap =
  banner "Micro-benchmarks (Bechamel, OLS ns/run)";
  let open Bechamel in
  let vrps = Dataset.Snapshot.vrps snap in
  let vrps_arr = Array.of_list vrps in
  let db = Rpki.Validation.create vrps in
  let table = snap.Dataset.Snapshot.table in
  let probe_prefixes =
    Array.init 256 (fun i ->
        Netaddr.Pfx.of_string_exn
          (Printf.sprintf "%d.%d.%d.0/24" (1 + (i mod 200)) (i * 7 mod 256) (i * 13 mod 256)))
  in
  let asns = Array.init 256 (fun i -> Rpki.Asnum.of_int (64_001 + (i * 37 mod 5_000))) in
  let counter = ref 0 in
  let next arr =
    incr counter;
    arr.(!counter land 255)
  in
  let roa_fig2 =
    Result.get_ok
      (Rpki.Roa.of_simple (Rpki.Asnum.of_int 31283)
         [ ("87.254.32.0/19", None); ("87.254.32.0/20", None); ("87.254.48.0/20", None);
           ("87.254.32.0/21", None) ])
  in
  let rtr_pdu =
    Rtr.Pdu.Prefix
      { flags = Rtr.Pdu.Announce;
        vrp =
          Rpki.Vrp.make_exn
            (Netaddr.Pfx.of_string_exn "168.122.0.0/16")
            ~max_len:24 (Rpki.Asnum.of_int 111) }
  in
  let rtr_wire = (Rtr.Pdu.encode rtr_pdu [@lint.encode_ok]) in
  let update =
    { Bgp.Wire.withdrawn = [ Netaddr.Pfx.of_string_exn "192.0.2.0/24" ];
      announced =
        [ Netaddr.Pfx.of_string_exn "168.122.0.0/16"; Netaddr.Pfx.of_string_exn "2001:db8::/32" ];
      as_path = [ Rpki.Asnum.of_int 3356; Rpki.Asnum.of_int 111 ] }
  in
  let update_wire = Bgp.Wire.encode update in
  let roa_wire = Rpki.Roa_der.encode roa_fig2 in
  let compress_chunk = Array.to_list (Array.sub vrps_arr 0 (min 1000 (Array.length vrps_arr))) in
  let block = String.make 1024 'x' in
  (* BGPsec: a 3-hop signed chain, validated repeatedly. *)
  let bgpsec_ks = Bgp.Bgpsec.create_keystore ~key_height:6 ~seed:"bench" () in
  List.iter (fun n -> Bgp.Bgpsec.enroll bgpsec_ks (Rpki.Asnum.of_int n)) [ 111; 3356; 174 ];
  let bgpsec_chain =
    let sr =
      Result.get_ok
        (Bgp.Bgpsec.originate bgpsec_ks
           ~prefix:(Netaddr.Pfx.of_string_exn "168.122.0.0/16")
           ~origin:(Rpki.Asnum.of_int 111) ~to_:(Rpki.Asnum.of_int 3356))
    in
    Result.get_ok
      (Bgp.Bgpsec.forward bgpsec_ks sr ~by:(Rpki.Asnum.of_int 3356) ~to_:(Rpki.Asnum.of_int 174))
  in
  (* RTR framer: a burst of prefix PDUs re-framed from one buffer. *)
  let rtr_burst = String.concat "" (List.init 64 (fun _ -> rtr_wire)) in
  let aggregate_input =
    List.init 64 (fun i ->
        Netaddr.Pfx.of_string_exn (Printf.sprintf "10.%d.0.0/16" (i land 0x3f)))
  in
  run_bechamel
    [ Test.make ~name:"sha256/1KiB" (Staged.stage (fun () -> Hashcrypto.Sha256.digest block));
      Test.make ~name:"validation/validate"
        (Staged.stage (fun () -> Rpki.Validation.validate db (next probe_prefixes) (next asns)));
      Test.make ~name:"bgp_table/ancestor-query"
        (Staged.stage (fun () ->
             Dataset.Bgp_table.has_same_origin_ancestor table (next probe_prefixes) (next asns)));
      Test.make ~name:"scan_roas/figure-2-roa"
        (Staged.stage (fun () -> Rpki.Scan_roas.vrps_of_roas [ roa_fig2 ]));
      Test.make ~name:"rtr/encode-prefix-pdu" (Staged.stage (fun () -> (Rtr.Pdu.encode rtr_pdu [@lint.encode_ok])));
      Test.make ~name:"rtr/decode-prefix-pdu" (Staged.stage (fun () -> Rtr.Pdu.decode rtr_wire 0));
      Test.make ~name:"bgp/encode-update" (Staged.stage (fun () -> Bgp.Wire.encode update));
      Test.make ~name:"bgp/decode-update" (Staged.stage (fun () -> Bgp.Wire.decode update_wire));
      Test.make ~name:"roa_der/decode" (Staged.stage (fun () -> Rpki.Roa_der.decode roa_wire));
      Test.make ~name:"bgpsec/validate-3-hop"
        (Staged.stage (fun () -> Bgp.Bgpsec.validate bgpsec_ks bgpsec_chain));
      Test.make ~name:"rtr/frame-64-pdus"
        (Staged.stage (fun () ->
             let f = Rtr.Framer.create () in
             Rtr.Framer.feed f rtr_burst));
      Test.make ~name:"pfx/aggregate-64"
        (Staged.stage (fun () -> Netaddr.Pfx.aggregate aggregate_input));
      Test.make ~name:"compress/1k-tuples"
        (Staged.stage (fun () -> Mlcore.Compress.run compress_chunk)) ]

let () =
  Printf.printf
    "MaxLength Considered Harmful to the RPKI (CoNEXT'17) — reproduction harness\n\
     scale=%.3f fig3_scale=%.3f seed=%d domains=%d (recommended %d)\n"
    scale fig3_scale seed domains
    (Domain.recommended_domain_count ());
  (* The snapshot is lazy so narrow BENCH_ONLY runs (e.g. the
     bench-smoke target) only generate what they use. *)
  let snap = lazy (Dataset.Snapshot.generate ~params:(Dataset.Snapshot.scaled scale) ~seed ()) in
  let section name f = if section_enabled name then f () in
  section "section6" (fun () -> section6 (Lazy.force snap));
  section "audit" (fun () -> audit (Lazy.force snap));
  section "table1" (fun () -> table1 (Lazy.force snap));
  section "figure3" figure3;
  section "attack" attack_eval;
  section "compress" (fun () -> section72 (Lazy.force snap));
  section "validate" (fun () -> section_validate (Lazy.force snap));
  section "arena" (fun () -> section_arena (Lazy.force snap));
  section "rtr" section_rtr;
  section "fanout" section_fanout;
  section "churn" bench_churn;
  section "ablation" (fun () -> ablation (Lazy.force snap));
  section "micro" (fun () -> micro_benchmarks (Lazy.force snap));
  banner "Done"
