(* Orchestration: discover files, parse them, run the rule registry
   (and, when enabled, the typed phase over .cmt artifacts), filter
   against a baseline, render text/JSON. Directory walks skip build
   products, the deliberately-bad lint fixture corpus (those are
   linted by tests via an explicit root), and any directory carrying a
   [.lint-ignore] marker file. *)

let skip_dirs = [ "_build"; ".git"; "lint_fixtures"; "node_modules" ]
let ignore_marker = ".lint-ignore"

let is_source f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

(* '/'-joined path relative to [root]; findings and rule scoping
   ("lib/core/...") key off this form on every platform. *)
let relativize ~root file =
  let root = if Filename.check_suffix root "/" then root else root ^ "/" in
  let rl = String.length root in
  if String.length file > rl && String.equal (String.sub file 0 rl) root then
    String.sub file rl (String.length file - rl)
  else file

let rec walk acc path =
  if Sys.is_directory path then
    if Sys.file_exists (Filename.concat path ignore_marker) then acc
    else
      Array.fold_left
        (fun acc entry ->
          if List.exists (String.equal entry) skip_dirs then acc
          else walk acc (Filename.concat path entry))
        acc
        (let entries = Sys.readdir path in
         Array.sort String.compare entries;
         entries)
  else if is_source path then path :: acc
  else acc

let discover ~root paths =
  let abs p = if Filename.is_relative p then Filename.concat root p else p in
  let files =
    List.fold_left
      (fun acc p ->
        let p = abs p in
        if Sys.file_exists p then walk acc p
        else begin
          Printf.eprintf "lint: no such file or directory: %s\n" p;
          acc
        end)
      [] paths
  in
  List.sort_uniq String.compare (List.map (relativize ~root) files)

type report = {
  root : string;
  files_scanned : int;
  rules_run : string list;
  findings : Finding.t list;
  typed_units : int;
  typed_warning : string option;
}

let parse_structure ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let typed_coverage_rule = "typed-coverage"

let run ?(rules = Rules.all) ?(typed = false) ?cmt_dir ~root paths =
  let rel_files = discover ~root paths in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* Per-file rules parse each .ml once and hand the tree to every
     applicable checker; a file that does not parse yields a single
     parse-error finding instead. *)
  List.iter
    (fun rel ->
      if Filename.check_suffix rel ".ml" then begin
        let file = Filename.concat root rel in
        match parse_structure ~file:rel (read_file file) with
        | st ->
          let ctx = { Rules.path = rel; add } in
          List.iter
            (fun (r : Rules.t) ->
              match r.kind with
              | Rules.File_rule check -> check ctx st
              | Rules.Tree_rule _ | Rules.Typed_rule _ -> ())
            rules
        | exception exn ->
          let line, col, msg =
            match Location.error_of_exn exn with
            | Some (`Ok (e : Location.error)) ->
              let loc = e.main.loc.loc_start in
              ( loc.pos_lnum,
                loc.pos_cnum - loc.pos_bol,
                Format.asprintf "%t" e.main.txt )
            | _ -> (1, 0, Printexc.to_string exn)
          in
          add
            (Finding.make ~rule:"parse" ~severity:Finding.Error ~file:rel ~line ~col
               (Printf.sprintf "could not parse: %s" msg))
      end)
    rel_files;
  List.iter
    (fun (r : Rules.t) ->
      match r.kind with
      | Rules.Tree_rule check -> check { Rules.tree_files = rel_files; tree_add = add }
      | Rules.File_rule _ | Rules.Typed_rule _ -> ())
    rules;
  (* Typed phase: load .cmt artifacts, build the call graph once, and
     hand it to every typed rule. Unloadable artifacts degrade to a
     warning — the syntactic findings above stand on their own. Once
     units do load, every scanned implementation must be one of them:
     a file without a unit would pass every typed rule unseen, so each
     is named as an error. (dune writes an executable's .cmt only when
     something builds its bytecode, such as the [@check] alias.) *)
  let typed_rules =
    List.filter (fun (r : Rules.t) -> match r.kind with Rules.Typed_rule _ -> true | _ -> false) rules
  in
  let typed_units, typed_warning =
    if not (typed && typed_rules <> []) then (0, None)
    else begin
      let cmt_dir =
        match cmt_dir with Some d -> d | None -> Cmt_loader.default_cmt_dir ~root
      in
      match Cmt_loader.load ~root ~cmt_dir with
      | Error msg ->
        (0, Some (Printf.sprintf "typed phase skipped: %s" msg))
      | Ok loader ->
        let graph = Callgraph.build loader in
        let tctx = { Rules.typed_files = rel_files; graph; typed_add = add } in
        List.iter
          (fun (r : Rules.t) ->
            match r.kind with Rules.Typed_rule check -> check tctx | _ -> ())
          typed_rules;
        let loaded = Hashtbl.create 256 in
        List.iter (fun (u : Cmt_loader.unit_info) -> Hashtbl.replace loaded u.source ()) loader.units;
        List.iter
          (fun rel ->
            if Filename.check_suffix rel ".ml" && not (Hashtbl.mem loaded rel) then
              add
                (Finding.make ~rule:typed_coverage_rule ~severity:Finding.Error ~file:rel ~line:1
                   ~col:0
                   "no .cmt artifact for this file, so the typed rules did not see it (run \
                    `dune build @check`)"))
          rel_files;
        (List.length loader.units, None)
    end
  in
  (* rules_run reports what actually executed: typed rules drop out
     when the phase is off or degraded. *)
  let executed =
    List.filter
      (fun (r : Rules.t) ->
        match r.kind with
        | Rules.Typed_rule _ -> typed && typed_units > 0
        | _ -> true)
      rules
  in
  { root;
    files_scanned = List.length rel_files;
    rules_run = List.map (fun (r : Rules.t) -> r.id) executed;
    findings = List.sort Finding.compare !findings;
    typed_units;
    typed_warning }

(* --- baseline -------------------------------------------------------- *)

(* A baseline is a previous JSON report: any finding whose fingerprint
   appears in it is dropped. The reader is deliberately line-oriented —
   the emitter prints one finding object per line — so no JSON parser is
   needed. *)
let find_substring line marker =
  let n = String.length line and m = String.length marker in
  let rec scan i =
    if i + m > n then None
    else if String.equal (String.sub line i m) marker then Some (i + m)
    else scan (i + 1)
  in
  scan 0

let load_baseline path =
  let marker = "\"fingerprint\": \"" in
  let fingerprints = ref [] in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          match find_substring line marker with
          | Some start -> (
            match String.index_from_opt line start '"' with
            | Some stop ->
              fingerprints := String.sub line start (stop - start) :: !fingerprints
            | None -> ())
          | None -> ()
        done
      with End_of_file -> ());
  !fingerprints

let apply_baseline ~baseline report =
  let keep f = not (List.exists (String.equal (Finding.fingerprint f)) baseline) in
  { report with findings = List.filter keep report.findings }

(* --- rendering ------------------------------------------------------- *)

let to_text report =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Finding.to_text f);
      Buffer.add_char buf '\n')
    report.findings;
  let errors, warnings = Finding.count_severity report.findings in
  Buffer.add_string buf
    (Printf.sprintf "%d file%s scanned, %d error%s, %d warning%s\n" report.files_scanned
       (if report.files_scanned = 1 then "" else "s")
       errors
       (if errors = 1 then "" else "s")
       warnings
       (if warnings = 1 then "" else "s"));
  Buffer.contents buf

let schema = "rpki-maxlen/lint/v2"

let to_json report =
  let buf = Buffer.create 4096 in
  let errors, warnings = Finding.count_severity report.findings in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema\": \"%s\",\n" schema);
  (* environment header, matching the BENCH_*.json convention *)
  Buffer.add_string buf
    (Printf.sprintf "  \"ocaml_version\": \"%s\",\n" (Finding.json_escape Sys.ocaml_version));
  Buffer.add_string buf (Printf.sprintf "  \"word_size\": %d,\n" Sys.word_size);
  Buffer.add_string buf
    (Printf.sprintf "  \"root\": \"%s\",\n" (Finding.json_escape report.root));
  Buffer.add_string buf (Printf.sprintf "  \"files_scanned\": %d,\n" report.files_scanned);
  Buffer.add_string buf (Printf.sprintf "  \"typed_units\": %d,\n" report.typed_units);
  (match report.typed_warning with
  | Some w ->
    Buffer.add_string buf
      (Printf.sprintf "  \"typed_warning\": \"%s\",\n" (Finding.json_escape w))
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "  \"rules\": [%s],\n"
       (String.concat ", "
          (List.map (fun id -> "\"" ^ Finding.json_escape id ^ "\"") report.rules_run)));
  Buffer.add_string buf (Printf.sprintf "  \"error_count\": %d,\n" errors);
  Buffer.add_string buf (Printf.sprintf "  \"warning_count\": %d,\n" warnings);
  Buffer.add_string buf "  \"findings\": [";
  List.iteri
    (fun i f ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      Buffer.add_string buf (Finding.to_json f))
    report.findings;
  Buffer.add_string buf (if report.findings = [] then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents buf

(* SARIF 2.1.0, the minimal profile code-scanning UIs ingest: one run,
   the executed rules as tool.driver.rules (id, name, one-paragraph
   help), one result per finding with a single physical location, and
   the witness chain as relatedLocations. Columns are 1-based in SARIF
   where findings carry 0-based ones. *)
let to_sarif report =
  let e = Finding.json_escape in
  let buf = Buffer.create 8192 in
  let loc ~indent ~file ~line ~col =
    Printf.sprintf
      "%s{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"%s\"}, \"region\": \
       {\"startLine\": %d, \"startColumn\": %d}}"
      indent (e file) line (col + 1)
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  Buffer.add_string buf "  \"version\": \"2.1.0\",\n";
  Buffer.add_string buf "  \"runs\": [\n    {\n";
  Buffer.add_string buf "      \"tool\": {\n        \"driver\": {\n";
  Buffer.add_string buf "          \"name\": \"rpki-maxlen-lint\",\n";
  Buffer.add_string buf
    (Printf.sprintf "          \"semanticVersion\": \"%s\",\n" (e schema));
  Buffer.add_string buf "          \"rules\": [";
  let executed = Rules.find report.rules_run in
  List.iteri
    (fun i (r : Rules.t) ->
      Buffer.add_string buf (if i = 0 then "\n            " else ",\n            ");
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\": \"%s\", \"name\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}, \
            \"defaultConfiguration\": {\"level\": \"%s\"}}"
           (e r.id) (e r.name) (e r.doc)
           (match r.severity with Finding.Error -> "error" | Finding.Warning -> "warning")))
    executed;
  Buffer.add_string buf (if executed = [] then "]\n" else "\n          ]\n");
  Buffer.add_string buf "        }\n      },\n";
  Buffer.add_string buf "      \"results\": [";
  List.iteri
    (fun i (f : Finding.t) ->
      Buffer.add_string buf (if i = 0 then "\n" else ",\n");
      Buffer.add_string buf "        {\n";
      Buffer.add_string buf (Printf.sprintf "          \"ruleId\": \"%s\",\n" (e f.rule));
      Buffer.add_string buf
        (Printf.sprintf "          \"level\": \"%s\",\n"
           (Finding.severity_to_string f.severity));
      Buffer.add_string buf
        (Printf.sprintf "          \"message\": {\"text\": \"%s\"},\n" (e f.message));
      Buffer.add_string buf
        (Printf.sprintf "          \"partialFingerprints\": {\"lintFingerprint/v1\": \"%s\"},\n"
           (e (Finding.fingerprint f)));
      Buffer.add_string buf "          \"locations\": [\n";
      Buffer.add_string buf
        (loc ~indent:"            " ~file:f.file ~line:f.line ~col:f.col);
      Buffer.add_string buf "}\n          ]";
      (match f.witness with
      | [] -> ()
      | steps ->
        Buffer.add_string buf ",\n          \"relatedLocations\": [";
        List.iteri
          (fun j (s : Finding.step) ->
            Buffer.add_string buf (if j = 0 then "\n" else ",\n");
            Buffer.add_string buf
              (loc ~indent:"            " ~file:s.step_file ~line:s.step_line ~col:0);
            Buffer.add_string buf
              (Printf.sprintf ", \"message\": {\"text\": \"%s\"}}" (e s.step_fn)))
          steps;
        Buffer.add_string buf "\n          ]");
      Buffer.add_string buf "\n        }")
    report.findings;
  Buffer.add_string buf (if report.findings = [] then "]\n" else "\n      ]\n");
  Buffer.add_string buf "    }\n  ]\n}\n";
  Buffer.contents buf

let has_errors report =
  List.exists (fun (f : Finding.t) -> f.severity = Finding.Error) report.findings
