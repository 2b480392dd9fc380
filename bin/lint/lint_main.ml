(* rpki-maxlen lint — AST-level enforcement of the repo's correctness
   invariants (DESIGN.md §9), plus an interprocedural typed phase over
   dune's .cmt artifacts.

   Usage: lint [PATHS...] [--rules R1,R5] [--typed] [--cmt-dir DIR]
               [--format text|json|sarif] [--out FILE] [--baseline FILE]
               [--root DIR] [--list-rules]

   Exit status: 0 when no error-severity finding survives baseline
   filtering, 1 otherwise, 2 on usage errors. A missing build dir with
   --typed degrades to the syntactic rules plus a stderr warning — it
   is not a failure. A partial one is: each scanned .ml file with no
   .cmt is a typed-coverage error (`dune build @check` writes them
   all). *)

module Engine = Lintcore.Engine
module Rules = Lintcore.Rules

let default_paths = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let usage =
  "lint [PATHS...] [options]\n\
   Static analysis for the rpki-maxlen tree. With no PATHS, lints lib/ bin/ bench/ \
   examples/ test/ under --root (default: the current directory).\n\n\
   The syntactic rules (R1, R2, R4-R7) parse sources directly. The typed rules \
   (R8, R10-R14) need .cmt artifacts from a prior `dune build @check` and run with --typed \
   (implied when --rules selects a typed rule).\n\n\
   Options:"

let () =
  let paths = ref [] in
  let rules_arg = ref "" in
  let typed = ref false in
  let cmt_dir = ref "" in
  let format = ref "text" in
  let out = ref "" in
  let baseline = ref "" in
  let root = ref (Sys.getcwd ()) in
  let list_rules = ref false in
  let spec =
    [ ( "--rules",
        Arg.Set_string rules_arg,
        "IDS  comma-separated rule ids to run (default: all, e.g. R1,R5)" );
      ( "--typed",
        Arg.Set typed,
        " enable the typed phase (R8, R10-R14) over _build .cmt artifacts" );
      ( "--cmt-dir",
        Arg.Set_string cmt_dir,
        "DIR  where to look for .cmt files (default: ROOT/_build/default)" );
      ( "--format",
        Arg.Set_string format,
        "FMT  output format: text (default), json, or sarif (2.1.0)" );
      ("--out", Arg.Set_string out, "FILE  write the report to FILE instead of stdout");
      ( "--baseline",
        Arg.Set_string baseline,
        "FILE  previous JSON report (v1 or v2); findings fingerprinted there are \
         suppressed" );
      ("--root", Arg.Set_string root, "DIR  tree root paths are resolved against");
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue and exit") ]
  in
  (try Arg.parse spec (fun p -> paths := p :: !paths) usage
   with Arg.Bad msg ->
     prerr_string msg;
     exit 2);
  if !list_rules then begin
    List.iter
      (fun (r : Rules.t) ->
        let phase =
          match r.kind with Rules.Typed_rule _ -> "typed" | _ -> "syntactic"
        in
        Printf.printf "%s %-22s [%s, %s]\n    %s\n" r.id r.name
          (Lintcore.Finding.severity_to_string r.severity)
          phase r.doc)
      Rules.all;
    exit 0
  end;
  let rules =
    if String.equal !rules_arg "" then Rules.all
    else begin
      let ids = String.split_on_char ',' !rules_arg |> List.map String.trim in
      let known = Rules.ids () in
      List.iter
        (fun id ->
          if not (List.exists (String.equal id) known) then begin
            Printf.eprintf "lint: unknown rule %S (known: %s)\n" id
              (String.concat ", " known);
            exit 2
          end)
        ids;
      Rules.find ids
    end
  in
  (* asking for a typed rule by id is asking for the typed phase *)
  let typed =
    !typed
    || List.exists
         (fun (r : Rules.t) ->
           match r.kind with Rules.Typed_rule _ -> not (String.equal !rules_arg "") | _ -> false)
         rules
  in
  let paths = if !paths = [] then default_paths else List.rev !paths in
  let cmt_dir = if String.equal !cmt_dir "" then None else Some !cmt_dir in
  let report = Engine.run ~rules ~typed ?cmt_dir ~root:!root paths in
  (match report.typed_warning with
  | Some w -> Printf.eprintf "lint: warning: %s; ran the syntactic rules only\n" w
  | None -> ());
  let report =
    if String.equal !baseline "" then report
    else if not (Sys.file_exists !baseline) then begin
      Printf.eprintf "lint: baseline file not found: %s\n" !baseline;
      exit 2
    end
    else Engine.apply_baseline ~baseline:(Engine.load_baseline !baseline) report
  in
  let rendered =
    match !format with
    | "text" -> Engine.to_text report
    | "json" -> Engine.to_json report
    | "sarif" -> Engine.to_sarif report
    | f ->
      Printf.eprintf "lint: unknown format %S (expected text, json, or sarif)\n" f;
      exit 2
  in
  (if String.equal !out "" then print_string rendered
   else begin
     let oc = open_out !out in
     Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
         output_string oc rendered)
   end);
  exit (if Engine.has_errors report then 1 else 0)
