(** Interprocedural def/use graph over [Typedtree], feeding the typed
    rules (R8 hot-closure-alloc, R10 exception-escape, R11–R13 handle
    safety).

    Nodes are module-level value bindings, identified by their
    normalized qualified name ("Rtr.Cache_server.handle"); every local
    definition inside a binding is attributed to it. Edges are
    identifier {e references} (not just call heads), so a function
    passed as a value stays reachable — a deliberate
    over-approximation. Closures handed to the netsim clock become
    synthetic nodes ("Owner.publish.<fun:42>") recorded as
    submissions. *)

type fact_kind =
  | Alloc  (** heap allocation in the body (R8) *)
  | Raises  (** may raise outside the allowlist (R10) *)
  | Handle_escape
      (** an arena handle stored in a ref/field/container or captured
          by a closure; detail starts with the issuing store's module
          name (R11) *)
  | Store_reset
      (** a reference to a store's [reset]/[clear]; detail is the
          store's module name (R11) *)
  | Cross_store
      (** a handle typed for store A passed to a function of store B
          (R12) *)
  | Unsafe_idx
      (** an [Array.unsafe_get/set] / [Bytes.unsafe_get/set]; detail
          ends with the index identifier, or ["<expr>"] (R13) *)
  | Idx_guard
      (** a comparison operator applied to an identifier — the guard
          evidence R13 matches against [Unsafe_idx] (detail is the
          identifier) *)

type fact = {
  kind : fact_kind;
  detail : string;  (** e.g. ["list cons"], ["failwith"] *)
  fact_line : int;
  fact_col : int;
}

type call = {
  callee : string;  (** node id *)
  call_line : int;
  guarded : bool;
      (** reference sits under a catch-all [try]: R10 does not follow
          the edge, R8 and R11 still do *)
}

type node = {
  id : string;
  file : string;  (** source path relative to the lint root *)
  line : int;  (** binding definition line *)
  attrs : string list;  (** binding attributes: ["hot"], waivers, ... *)
  mutable calls : call list;
  mutable facts : fact list;
}

type submission = {
  sub_root : string;  (** node the submitted callback starts at *)
  sub_file : string;
  sub_line : int;
}

type t

val build : Cmt_loader.t -> t
(** Two passes: declare every binding across every unit (so forward
    and cross-module references resolve regardless of load order),
    then analyze bodies for facts, edges and submissions. *)

val find : t -> string -> node option

val nodes : t -> node list
(** All nodes, sorted by id. *)

val node_count : t -> int

val submissions : t -> submission list
(** Deduplicated, in discovery order. *)

val reach : t -> waiver:string -> follow_guarded:bool -> string -> (node * string list) list
(** BFS from a root node id. Skips nodes carrying the [waiver]
    attribute (a waiver anywhere on a path kills everything beyond it)
    and, when [follow_guarded] is false, edges made under a catch-all
    [try]. Each reachable node comes with its witness chain of node
    ids, root first — a shortest path, deterministic across runs. The
    root itself is included (chain [[root]]); an unknown or waived
    root yields []. *)

(** {2 Programmatic construction} — for unit-testing reachability on a
    hand-built graph, without compiling fixtures. *)

val create : unit -> t

val add_node :
  t ->
  id:string ->
  file:string ->
  line:int ->
  ?attrs:string list ->
  ?facts:fact list ->
  ?calls:call list ->
  unit ->
  node
(** Idempotent on [id]: re-adding returns a fresh value but keeps the
    first registration in the graph. *)
