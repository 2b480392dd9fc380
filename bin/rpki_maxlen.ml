(* Command-line frontend: regenerate each of the paper's experiments
   and run the compress_roas pipeline on VRP CSV files. *)

open Cmdliner

(* [base] restricted to the values [ok] accepts: anything else is a
   usage error (exit 124) that says what was [expected]. *)
let bounded base ~expected ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let int_at_least n =
  bounded Arg.int ~expected:(Printf.sprintf "an integer of at least %d" n) (fun x -> x >= n)

let scale_arg =
  let doc = "Dataset scale relative to the paper's 2017-06-01 snapshot (1.0 = 776,945 pairs)." in
  let scale =
    bounded Arg.float ~expected:"a finite number above 0" (fun x -> Float.is_finite x && x > 0.0)
  in
  Arg.(value & opt scale 0.1 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let seed_arg =
  let doc = "PRNG seed; every output is deterministic in it." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let mode_arg =
  let doc =
    "Compression merge rule: $(b,strict) (lossless, default) or $(b,paper) (Algorithm 1 \
     verbatim, can over-authorize; see EXPERIMENTS.md)."
  in
  let modes = Arg.enum [ ("strict", Mlcore.Compress.Strict); ("paper", Mlcore.Compress.Paper) ] in
  Arg.(value & opt modes Mlcore.Compress.Strict & info [ "mode" ] ~doc)

let snapshot scale seed =
  Dataset.Snapshot.generate ~params:(Dataset.Snapshot.scaled scale) ~seed ()

let measure_cmd =
  let run scale seed =
    let stats = Mlcore.Analysis.measure (snapshot scale seed) in
    print_endline (Mlcore.Report.render_stats stats)
  in
  Cmd.v
    (Cmd.info "measure" ~doc:"Reproduce the section-6 measurements on a synthetic snapshot.")
    Term.(const run $ scale_arg $ seed_arg)

let table1_cmd =
  let run scale seed mode =
    let rows = Mlcore.Scenario.table1 ~mode (snapshot scale seed) in
    print_string (Mlcore.Report.render_table1 ~scale rows)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (PDU counts for the seven scenarios).")
    Term.(const run $ scale_arg $ seed_arg $ mode_arg)

let figure3_cmd =
  let panel_arg =
    let doc = "Which panel: $(b,a) (today's deployment) or $(b,b) (full deployment)." in
    Arg.(value & opt (enum [ ("a", `A); ("b", `B) ]) `A & info [ "panel" ] ~doc)
  in
  let csv_arg =
    let doc = "Emit CSV instead of an aligned table." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let run scale seed mode panel csv =
    let weeks = Dataset.Timeline.generate ~params:(Dataset.Snapshot.scaled scale) ~seed () in
    let title, series =
      match panel with
      | `A -> ("Figure 3a: today's RPKI deployment", Mlcore.Scenario.figure3a ~mode weeks)
      | `B -> ("Figure 3b: RPKI in full deployment", Mlcore.Scenario.figure3b ~mode weeks)
    in
    if csv then print_string (Mlcore.Report.csv_of_series series)
    else print_string (Mlcore.Report.render_series ~title series)
  in
  Cmd.v
    (Cmd.info "figure3" ~doc:"Reproduce Figure 3 (PDU counts along the weekly timeline).")
    Term.(const run $ scale_arg $ seed_arg $ mode_arg $ panel_arg $ csv_arg)

let compress_cmd =
  let input_arg =
    let doc = "VRP CSV file (prefix,maxLength,asn per line); - for stdin." in
    Arg.(value & opt string "-" & info [ "input"; "i" ] ~docv:"FILE" ~doc)
  in
  let run mode input =
    let contents =
      if input = "-" then Ok (In_channel.input_all stdin)
      else
        try Ok (In_channel.with_open_text input In_channel.input_all)
        with Sys_error e ->
          (* a missing file's message names it; a directory's does not *)
          Error (if String.starts_with ~prefix:input e then e else input ^ ": " ^ e)
    in
    match Result.bind contents Rpki.Scan_roas.of_csv with
    | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok vrps ->
      let compressed = Mlcore.Compress.run ~mode vrps in
      print_string (Rpki.Scan_roas.to_csv compressed);
      Printf.eprintf "compressed %d -> %d tuples (%.2f%%)\n" (List.length vrps)
        (List.length compressed)
        (100.0
        *. Mlcore.Compress.compression_ratio ~before:(List.length vrps)
             ~after:(List.length compressed))
  in
  Cmd.v
    (Cmd.info "compress"
       ~doc:"Run compress_roas on a VRP CSV (drop-in for the scan_roas output format).")
    Term.(const run $ mode_arg $ input_arg)

let hijack_cmd =
  let ases_arg =
    let doc = "Number of ASes in the synthetic topology." in
    Arg.(value & opt (int_at_least 10) 1000 & info [ "ases" ] ~docv:"N" ~doc)
  in
  let rov_arg =
    let doc = "Fraction of ASes performing route-origin validation (drop invalid)." in
    let fraction = bounded Arg.float ~expected:"a number in [0, 1]" (fun x -> x >= 0.0 && x <= 1.0) in
    Arg.(value & opt fraction 1.0 & info [ "rov" ] ~docv:"FRACTION" ~doc)
  in
  let trials_arg =
    let doc = "Number of random victim/attacker pairs to average over." in
    Arg.(value & opt (int_at_least 1) 20 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let run seed n_as rov trials =
    print_string (Experiments.Hijack_eval.hijack_table ~seed ~n_as ~rov ~trials);
    print_newline ();
    print_string (Experiments.Hijack_eval.aspa_comparison ~seed ~n_as ~trials);
    print_newline ();
    print_string
      (Experiments.Hijack_eval.render_rov_sweep
         (Experiments.Hijack_eval.rov_sweep ~seed ~n_as ~trials
            ~fractions:[ 0.0; 0.25; 0.5; 0.75; 1.0 ]))
  in
  Cmd.v
    (Cmd.info "hijack"
       ~doc:
         "Reproduce the section-4/5 attack comparison on a synthetic AS topology, then the \
          ASPA counterfactual and the ROV-deployment sweep ($(b,--rov) sets the first table's \
          deployment only).")
    Term.(const run $ seed_arg $ ases_arg $ rov_arg $ trials_arg)

let audit_cmd =
  let top_arg =
    let doc = "Show only the $(docv) worst ROAs." in
    Arg.(value & opt (int_at_least 0) 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run scale seed top =
    let snap = snapshot scale seed in
    let table = snap.Dataset.Snapshot.table and roas = snap.Dataset.Snapshot.roas in
    Format.printf "%a@." Mlcore.Advisor.pp_corpus_stats (Mlcore.Advisor.corpus_stats table roas);
    let reports = Mlcore.Advisor.audit table roas in
    Printf.printf "%d of %d ROAs need attention; worst %d:\n\n" (List.length reports)
      (List.length roas) (min top (List.length reports));
    List.iteri
      (fun i (report, suggestion) ->
        if i < top then begin
          Format.printf "%a@." Mlcore.Advisor.pp_report report;
          (match suggestion with
           | Some minimal -> Format.printf "  suggested replacement: %a@.@." Rpki.Roa.pp minimal
           | None -> Format.printf "  suggested action: revoke (nothing it authorizes is announced)@.@.")
        end)
      reports
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Review a ROA corpus against BGP, as the paper's section-8 recommendation would \
          have RIR portals do: flag vulnerable maxLength use and suggest minimal ROAs.")
    Term.(const run $ scale_arg $ seed_arg $ top_arg)

let generate_cmd =
  let run scale seed =
    let snap = snapshot scale seed in
    print_string (Rpki.Scan_roas.to_csv (Dataset.Snapshot.vrps snap))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic snapshot and dump its VRPs as CSV.")
    Term.(const run $ scale_arg $ seed_arg)

let () =
  let info =
    Cmd.info "rpki_maxlen" ~version:"1.0.0"
      ~doc:"Reproduction toolkit for 'MaxLength Considered Harmful to the RPKI' (CoNEXT'17)."
  in
  exit (Cmd.eval (Cmd.group info [ measure_cmd; table1_cmd; figure3_cmd; compress_cmd; hijack_cmd; audit_cmd; generate_cmd ]))
