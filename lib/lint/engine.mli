(** Lint orchestration: discover sources, parse, run the rule registry
    (syntactic phase always; typed phase over [.cmt] artifacts on
    request), baseline-filter, render. *)

val schema : string
(** ["rpki-maxlen/lint/v2"] — the JSON report schema tag. v2 adds the
    environment header ([ocaml_version], [word_size]), the typed-phase
    fields ([typed_units], optional [typed_warning]) and per-finding
    [witness] chains. *)

val discover : root:string -> string list -> string list
(** Expand files/directories (relative to [root]) into a sorted list of
    root-relative [.ml]/[.mli] paths. Directory walks skip [_build],
    [.git], [lint_fixtures], and any directory containing a
    [.lint-ignore] marker file. *)

type report = {
  root : string;
  files_scanned : int;
  rules_run : string list;
      (** rules that actually executed: typed rules drop out when the
          typed phase is off or degraded *)
  findings : Finding.t list;  (** sorted by file/line/col/rule *)
  typed_units : int;  (** compilation units the typed phase analyzed; 0 if it did not run *)
  typed_warning : string option;
      (** set when the typed phase was requested but degraded
          (no/unreadable [.cmt] artifacts) *)
}

val typed_coverage_rule : string
(** ["typed-coverage"]: the rule id of the error finding the typed
    phase reports for a scanned [.ml] file no loaded unit comes from. *)

val run :
  ?rules:Rules.t list -> ?typed:bool -> ?cmt_dir:string -> root:string -> string list -> report
(** Lint the given paths. Unparseable [.ml] files yield a single
    ["parse"]-rule error finding rather than aborting the run.

    With [~typed:true], [.cmt] artifacts are loaded from [cmt_dir]
    (default [root/_build/default]), the call graph is built once, and
    the typed rules run with their roots scoped to the discovered file
    set. Every discovered [.ml] must then map to a loaded unit; each
    one that does not gets a {!typed_coverage_rule} error at its line
    1, so a partial build cannot pass for a clean one. (Executables
    get a lasting [.cmt] from [dune build @check].) A missing or empty
    build directory degrades to [typed_warning] — never a failure. *)

val load_baseline : string -> string list
(** Fingerprints recorded in a previous JSON report (line-oriented
    scan; no JSON parser needed since the emitter writes one finding
    per line). Accepts both v1 and v2 reports — the per-line finding
    format is unchanged, v2 only adds header fields and the nested
    witness array. *)

val apply_baseline : baseline:string list -> report -> report
(** Drop findings whose fingerprint appears in the baseline. *)

val to_text : report -> string
val to_json : report -> string

val to_sarif : report -> string
(** SARIF 2.1.0, the minimal profile code-scanning UIs ingest: one
    run, the executed rules under [tool.driver.rules], one result per
    finding (rule id, level, message, physical location with 1-based
    [startColumn]) and the witness chain as [relatedLocations]. The v2
    JSON report remains the baseline format — SARIF carries no
    fingerprint header and [load_baseline] does not read it. *)

val has_errors : report -> bool
(** True when any error-severity finding remains — the CLI's exit
    criterion. *)
