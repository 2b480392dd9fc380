(** Lint findings: location-tagged rule violations with text and JSON
    renderings (schema [rpki-maxlen/lint/v2]). *)

type severity = Error | Warning

val severity_to_string : severity -> string

type step = {
  step_fn : string;  (** qualified function id, e.g. ["Rtr.Cache_server.handle_wire"] *)
  step_file : string;  (** path relative to the lint root *)
  step_line : int;  (** definition line of the function *)
}
(** One hop of a witness call chain (the typed rules): the path
    through the call graph from an entry point to the offending
    function. *)

type t = {
  rule : string;
  severity : severity;
  file : string;  (** path relative to the lint root *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler reports *)
  message : string;
  witness : step list;
      (** Empty for the syntactic rules; non-empty for every typed
          finding (first step is the entry point, last the offender). *)
}

val make :
  ?witness:step list ->
  rule:string -> severity:severity -> file:string -> line:int -> col:int -> string -> t

val fingerprint : t -> string
(** Stable identity used by [--baseline] filtering: ["rule|file|line|col"].
    The witness chain is deliberately excluded — unrelated code motion
    reshapes chains without changing what the finding is about. *)

val compare : t -> t -> int
(** Order by file, then line, column, rule — the report order. *)

val to_text : t -> string
(** ["file:line:col: severity [rule] message"], with
    ["; witness: a (f:l) -> b (f:l)"] appended for typed findings. *)

val to_json : t -> string
(** A single-line JSON object (keeps the report greppable per finding);
    typed findings carry a nested ["witness"] array on the same line. *)

val json_escape : string -> string

val count_severity : t list -> int * int
(** [(errors, warnings)]. *)
