(** The repo-specific lint rule catalogue (see DESIGN.md §9), in two
    phases.

    R1, R2 and R4–R7 are syntactic — they walk the {!Parsetree} with
    [Ast_iterator], with no typing environment. R8 and R10–R13 are
    typed and interprocedural: they consume the {!Callgraph} built
    from [.cmt] artifacts and attach a witness call chain to every
    finding. R3 and R9 are retired; their ids are not reused.
    R11–R13 are the static half of the arena handle-safety contract
    (DESIGN.md §13): handle escape across reset, cross-store handle
    confusion, and unchecked unsafe indexing.

    Each rule offers an attribute escape hatch for sites its
    approximation gets wrong: [[@lint.poly_ok]] (R1),
    [[@lint.unsafe_ok]] (R2), [[@lint.stdout_ok]] (R5),
    [[@lint.encode_ok]] (R6), [[@lint.alloc_ok]] (R7, R8),
    [[@lint.raise_ok]] (R10), [[@lint.handle_ok]] (R11, R12), and —
    with a mandatory justification payload —
    [[@@lint.unsafe_idx_ok "why"]] (R13). For the typed rules the
    waiver is honored on {e any} binding along the call chain, killing
    everything beyond it. *)

type file_context = {
  path : string;  (** '/'-separated path relative to the lint root *)
  add : Finding.t -> unit;
}

type tree_context = {
  tree_files : string list;  (** every scanned file, relative paths *)
  tree_add : Finding.t -> unit;
}

type typed_context = {
  typed_files : string list;
      (** scanned files — typed roots are scoped to these, so cmts of
          fixture or ignored code never seed findings *)
  graph : Callgraph.t;
  typed_add : Finding.t -> unit;
}

type kind =
  | File_rule of (file_context -> Parsetree.structure -> unit)
      (** runs once per parsed [.ml] file *)
  | Tree_rule of (tree_context -> unit)  (** runs once per lint invocation *)
  | Typed_rule of (typed_context -> unit)
      (** runs once per lint invocation, only when the typed phase is
          enabled and [.cmt] artifacts were loadable *)

type t = {
  id : string;  (** "R1" .. "R13" *)
  name : string;  (** short slug, e.g. "poly-compare" *)
  severity : Finding.severity;
  doc : string;  (** one-paragraph rationale shown by [--list-rules] *)
  kind : kind;
}

val all : t list
(** The registry, in rule-id order. *)

val find : string list -> t list
(** Rules whose id is in the list (unknown ids are ignored). *)

val ids : unit -> string list
