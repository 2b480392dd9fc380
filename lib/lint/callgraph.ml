(* A per-module def/use graph over Typedtree, with the per-node facts
   the typed rules (R8, R10–R13) consume and a transitive-closure
   engine that produces witness call chains.

   Nodes are module-level value bindings ("Rtr.Cache_server.handle") —
   everything inside a binding's body, local functions included, is
   attributed to that binding. Edges are *references*: any identifier
   use that resolves to another node counts, so passing a function as
   a value keeps it reachable (an over-approximation in the safe
   direction for every rule). Closures handed to the netsim clock
   become synthetic nodes ("...publish.<fun:42>") so submissions have
   a root to start from.

   Resolution is name-based, mirroring how dune-wrapped units appear
   in typed paths: the unit "Rtr__Cache_server" is normalized to
   "Rtr.Cache_server", and a reference recorded as
   "Rtr.Cache_server.handle" resolves directly. References through a
   local module alias ("Vrp.exact" for Rpki.Vrp) fall back to a
   last-component unit index; an ambiguous fallback resolves to
   nothing rather than to the wrong node. Same-unit references resolve
   exactly, by Ident stamp. *)

type fact_kind =
  | Alloc
  | Raises
  | Handle_escape
  | Store_reset
  | Cross_store
  | Unsafe_idx
  | Idx_guard

type fact = {
  kind : fact_kind;
  detail : string;
  fact_line : int;
  fact_col : int;
}

type call = {
  callee : string;
  call_line : int;
  guarded : bool;
      (** The reference sits under a [try] with a catch-all handler:
          exceptions from the callee cannot escape, so R10 does not
          follow the edge. R8 and R11 still do. *)
}

type node = {
  id : string;
  file : string;
  line : int;
  attrs : string list;
  mutable calls : call list;
  mutable facts : fact list;
}

type submission = {
  sub_root : string;  (** node id the callback starts at *)
  sub_file : string;
  sub_line : int;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  mutable order : string list;  (** insertion order, reversed *)
  unit_index : (string, string list) Hashtbl.t;
      (** last unit-path component -> normalized unit ids *)
  mutable submissions : submission list;
}

let create () =
  { nodes = Hashtbl.create 256;
    order = [];
    unit_index = Hashtbl.create 64;
    submissions = [] }

let find t id = Hashtbl.find_opt t.nodes id

let nodes t =
  List.rev_map (fun id -> Hashtbl.find t.nodes id) t.order
  |> List.sort (fun a b -> String.compare a.id b.id)

let node_count t = List.length t.order

let submissions t = List.rev t.submissions

let add_node t ~id ~file ~line ?(attrs = []) ?(facts = []) ?(calls = []) () =
  let n = { id; file; line; attrs; calls; facts } in
  if not (Hashtbl.mem t.nodes id) then begin
    Hashtbl.replace t.nodes id n;
    t.order <- id :: t.order
  end;
  n

let add_submission t ~root ~file ~line =
  let s = { sub_root = root; sub_file = file; sub_line = line } in
  if
    not
      (List.exists
         (fun o ->
           o.sub_line = line && String.equal o.sub_file file && String.equal o.sub_root root)
         t.submissions)
  then t.submissions <- s :: t.submissions

(* --- reachability ---------------------------------------------------- *)

(* BFS from [root], skipping nodes whose binding carries [waiver] (a
   waiver anywhere on a path kills every finding beyond it) and —
   unless [follow_guarded] — edges made under a catch-all [try].
   Returns each reachable node with its witness chain (root first,
   node last); the chain is the first (hence a shortest) path found,
   and the traversal order is deterministic: edges are kept in source
   order. *)
let reach t ~waiver ~follow_guarded root_id =
  match find t root_id with
  | None -> []
  | Some root ->
    let waived n = List.exists (String.equal waiver) n.attrs in
    if waived root then []
    else begin
      let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
      Hashtbl.replace seen root_id ();
      let out = ref [ (root, [ root_id ]) ] in
      let queue = Queue.create () in
      Queue.add (root, [ root_id ]) queue;
      while not (Queue.is_empty queue) do
        let n, rev_chain_holder = Queue.pop queue in
        List.iter
          (fun c ->
            if (follow_guarded || not c.guarded) && not (Hashtbl.mem seen c.callee) then
              match find t c.callee with
              | Some callee when not (waived callee) ->
                Hashtbl.replace seen c.callee ();
                let entry = (callee, rev_chain_holder @ [ c.callee ]) in
                out := entry :: !out;
                Queue.add entry queue
              | Some _ | None -> ())
          n.calls
      done;
      List.rev !out
    end

(* --- building from cmts ---------------------------------------------- *)

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

let attr_payload_nonempty (a : Parsetree.attribute) =
  match a.attr_payload with Parsetree.PStr [] -> false | _ -> true

let has_justified_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) ->
      String.equal a.attr_name.txt name && attr_payload_nonempty a)
    attrs

(* Binding attributes as seen by the rules. [lint.unsafe_idx_ok]
   demands a justification payload — an empty waiver is dropped here,
   so it waives nothing and R13 still fires. *)
let binding_attr_names (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt "lint.unsafe_idx_ok" && not (attr_payload_nonempty a)
      then None
      else Some a.attr_name.txt)
    attrs

(* Split a normalized dotted path into components, expanding any
   dune-wrapped component left in a raw path. *)
let path_parts p =
  String.split_on_char '.' (Cmt_loader.normalize_modname (Path.name p))

let drop_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

(* Container-mutating functions: a handle passed to one is stored
   (R11). *)
let mutator_modules = [ "Hashtbl"; "Buffer"; "Stack"; "Queue"; "Array"; "Bytes" ]

let mutator_fns =
  [ "set"; "add"; "replace"; "remove"; "reset"; "clear"; "truncate"; "push"; "pop";
    "add_string"; "add_char"; "add_bytes"; "add_buffer"; "add_substring"; "fill";
    "blit"; "unsafe_set" ]

let mem_string s l = List.exists (String.equal s) l

let is_container_mutation parts =
  match List.rev (drop_stdlib parts) with
  | f :: m :: _ -> mem_string f mutator_fns && mem_string m mutator_modules
  | _ -> false

(* Exception-raising primitives and well-known partial stdlib
   functions. Out-of-bounds Array/Bytes/String access is deliberately
   not here: flagging every index read would drown the signal. *)
let raise_primitives = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let raising_externals =
  [ [ "Printexc"; "raise_with_backtrace" ]; [ "Option"; "get" ]; [ "List"; "hd" ];
    [ "List"; "tl" ]; [ "List"; "nth" ]; [ "List"; "find" ]; [ "Hashtbl"; "find" ];
    [ "Queue"; "pop" ]; [ "Queue"; "take" ]; [ "Queue"; "peek" ]; [ "Stack"; "pop" ];
    [ "Stack"; "top" ]; [ "int_of_string" ]; [ "float_of_string" ];
    [ "Int32"; "of_string" ]; [ "Int64"; "of_string" ]; [ "Sys"; "getenv" ] ]

let raising_external parts =
  let parts = drop_stdlib parts in
  match parts with
  | [ f ] when mem_string f raise_primitives -> Some f
  | _ ->
    if List.exists (List.equal String.equal parts) raising_externals then
      Some (String.concat "." parts)
    else None

(* Exceptions whose raise is conventional control flow, caught by the
   raiser's own caller by design. *)
let allowlisted_exceptions = [ "Exit" ]

(* Arena stores whose [type handle = int] aliases carry lifetime
   obligations. The aliases are transparent, but the Typedtree keeps
   abbreviations un-expanded in occurrence types, so the issuing store
   is recoverable from any handle-typed expression. *)
let handle_stores = [ "Itrie"; "Vrp_db"; "Bgp_db" ]

let rec handle_store_of_type depth (ty : Types.type_expr) =
  if depth > 3 then None
  else
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) -> (
      match List.rev (path_parts p) with
      | "handle" :: store :: _ when mem_string store handle_stores -> Some store
      | _ -> List.find_map (handle_store_of_type (depth + 1)) args)
    | Types.Ttuple tys -> List.find_map (handle_store_of_type (depth + 1)) tys
    | _ -> None

(* The store a value's handles come from, seen through one level of
   container/tuple nesting (a [handle ref], a [(int * handle) list]). *)
let handle_store ty = handle_store_of_type 0 ty

let is_clock_submission parts =
  match List.rev (drop_stdlib parts) with
  | ("at" | "after") :: "Clock" :: _ | "advance" :: "Wheel" :: _ -> true
  | _ -> false

(* Global-name resolution: exact id first, then the unit index keyed
   by the path's head component (module aliases like
   [module Vrp = Rpki.Vrp] leave "Vrp.exact" in the tree). Ambiguity
   resolves to nothing. *)
let resolve_global t parts =
  match parts with
  | [] | [ _ ] -> None
  | "Stdlib" :: _ -> None
  | head :: rest -> (
    let full = String.concat "." parts in
    if Hashtbl.mem t.nodes full then Some full
    else
      match Hashtbl.find_opt t.unit_index head with
      | None -> None
      | Some units ->
        let candidates =
          List.filter_map
            (fun u ->
              let id = u ^ "." ^ String.concat "." rest in
              if Hashtbl.mem t.nodes id then Some id else None)
            units
        in
        (match List.sort_uniq String.compare candidates with
        | [ id ] -> Some id
        | _ -> None))

(* --- per-binding analysis -------------------------------------------- *)

(* Pass 1 over a binding body: collect every Ident bound anywhere
   inside (patterns, for-indices, letop params). Stamps are globally
   unique, so a flat set needs no scoping discipline; any identifier
   outside the set is free — a module-level value or a variable
   captured from an enclosing definition. *)
let collect_locals expr =
  let locals : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let bind id = Hashtbl.replace locals (Ident.unique_name id) () in
  let default = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> bind id
    | Typedtree.Tpat_alias (_, id, _) -> bind id
    | _ -> ());
    default.pat it p
  in
  let expr_it (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_for (id, _, _, _, _, _) -> bind id
    | Typedtree.Texp_letop { param; _ } -> bind param
    | _ -> ());
    default.expr it e
  in
  let it = { default with pat; expr = expr_it } in
  it.expr it expr;
  locals

type walk_ctx = {
  graph : t;
  node : node;
  locals : (string, unit) Hashtbl.t;
  stamp_map : (string, string) Hashtbl.t;  (** unit-local Ident -> node id *)
  (* suppression depths: an expression-level waiver attribute prunes
     its kind from the whole subtree, mirroring the syntactic rules *)
  mutable alloc_off : int;
  mutable raise_off : int;
  mutable handle_off : int;
  mutable unsafe_off : int;
  mutable try_depth : int;  (** > 0 under a catch-all [try] body *)
  mutable pending_closures : (string * Typedtree.expression) list;
      (** submissions whose argument was a closure literal: processed
          after the current walk, becoming synthetic nodes *)
}

let is_local ctx id = Hashtbl.mem ctx.locals (Ident.unique_name id)

let loc_line_col (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let add_fact ctx kind detail (loc : Location.t) =
  let off =
    match kind with
    | Alloc -> ctx.alloc_off > 0
    | Raises -> ctx.raise_off > 0
    | Handle_escape | Cross_store -> ctx.handle_off > 0
    | Unsafe_idx -> ctx.unsafe_off > 0
    (* markers, not findings: nothing suppresses them *)
    | Store_reset | Idx_guard -> false
  in
  if not off then begin
    let fact_line, fact_col = loc_line_col loc in
    ctx.node.facts <- { kind; detail; fact_line; fact_col } :: ctx.node.facts
  end

let add_call ctx id (loc : Location.t) =
  let call_line, _ = loc_line_col loc in
  ctx.node.calls <- { callee = id; call_line; guarded = ctx.try_depth > 0 } :: ctx.node.calls

let resolve_ident ctx (p : Path.t) (loc : Location.t) =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt ctx.stamp_map (Ident.unique_name id) with
    | Some node_id -> add_call ctx node_id loc
    | None -> ())
  | _ -> (
    let parts = path_parts p in
    (match raising_external parts with
    | Some what -> add_fact ctx Raises what loc
    | None -> ());
    (* a reference to a store's reset/clear marks this node as
       invalidating that store's handles (R11) *)
    (match List.rev (drop_stdlib parts) with
    | ("reset" | "clear") :: store :: _ when mem_string store handle_stores ->
      add_fact ctx Store_reset store loc
    | _ -> ());
    match resolve_global ctx.graph parts with
    | Some node_id -> add_call ctx node_id loc
    | None -> ())

let catch_all_case (c : Typedtree.value Typedtree.case) =
  let rec catch_all (p : Typedtree.value Typedtree.general_pattern) =
    match p.pat_desc with
    | Typedtree.Tpat_any | Typedtree.Tpat_var _ -> true
    | Typedtree.Tpat_alias (q, _, _) -> catch_all q
    | Typedtree.Tpat_or (a, b, _) -> catch_all a || catch_all b
    | _ -> false
  in
  c.c_guard = None && catch_all c.c_lhs

(* Pass 2: walk a node body recording facts, edges and submissions.
   [spine] marks the leading Texp_function chain of the binding — the
   function's parameter interface, not a closure allocated inside it. *)
let walk_body ctx ?(spine = true) top =
  let default = Tast_iterator.default_iterator in
  let with_suppressed (e : Typedtree.expression) f =
    let a = has_attr "lint.alloc_ok" e.exp_attributes in
    let r = has_attr "lint.raise_ok" e.exp_attributes in
    let h = has_attr "lint.handle_ok" e.exp_attributes in
    let u = has_justified_attr "lint.unsafe_idx_ok" e.exp_attributes in
    if a then ctx.alloc_off <- ctx.alloc_off + 1;
    if r then ctx.raise_off <- ctx.raise_off + 1;
    if h then ctx.handle_off <- ctx.handle_off + 1;
    if u then ctx.unsafe_off <- ctx.unsafe_off + 1;
    Fun.protect
      ~finally:(fun () ->
        if a then ctx.alloc_off <- ctx.alloc_off - 1;
        if r then ctx.raise_off <- ctx.raise_off - 1;
        if h then ctx.handle_off <- ctx.handle_off - 1;
        if u then ctx.unsafe_off <- ctx.unsafe_off - 1)
      f
  in
  let rec expr_it (it : Tast_iterator.iterator) (e : Typedtree.expression) =
    with_suppressed e (fun () ->
        match e.exp_desc with
        | Texp_ident (p, _, _) -> resolve_ident ctx p e.exp_loc
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); exp_loc = head_loc; _ }, args)
          -> (
          let parts = path_parts p in
          (* submissions: closures handed to the clock *)
          let waived (x : Typedtree.expression) = has_attr "lint.raise_ok" x.exp_attributes in
          if is_clock_submission parts && not (waived e) then
            List.iter
              (fun (_, arg) ->
                match arg with
                | Some a when not (waived a) -> (
                  match a.exp_desc with
                  | Texp_function _ ->
                    ctx.pending_closures <- (ctx.node.id, a) :: ctx.pending_closures
                  | Texp_ident (fp, _, _) -> (
                    let target =
                      match fp with
                      | Path.Pident id -> Hashtbl.find_opt ctx.stamp_map (Ident.unique_name id)
                      | _ -> resolve_global ctx.graph (path_parts fp)
                    in
                    match target with
                    | Some root ->
                      let line, _ = loc_line_col a.exp_loc in
                      add_submission ctx.graph ~root ~file:ctx.node.file ~line
                    | None -> ())
                  | _ -> ())
                | _ -> ())
              args;
          (match (drop_stdlib parts, args) with
          | [ "ref" ], (_, Some _) :: _ -> add_fact ctx Alloc "ref cell" head_loc
          | _ -> ());
          (* arena handle provenance: escapes into long-lived storage
             (R11), cross-store flows (R12), unsafe indexing and the
             comparisons that guard it (R13) *)
          (match (drop_stdlib parts, args) with
          | [ ":=" ], _ :: (_, Some rhs) :: _ -> (
            match handle_store rhs.exp_type with
            | Some s ->
              add_fact ctx Handle_escape
                (Printf.sprintf "%s handle stored in a ref" s)
                head_loc
            | None -> ())
          | mp, _ :: stored when is_container_mutation mp ->
            List.iter
              (fun (_, a) ->
                match a with
                | Some (a : Typedtree.expression) -> (
                  match handle_store a.exp_type with
                  | Some s ->
                    add_fact ctx Handle_escape
                      (Printf.sprintf "%s handle stored via %s" s
                         (String.concat "." (drop_stdlib parts)))
                      a.exp_loc
                  | None -> ())
                | None -> ())
              stored
          | _ -> ());
          (match List.rev (drop_stdlib parts) with
          | fn :: store :: _ when mem_string store handle_stores ->
            List.iter
              (fun (_, a) ->
                match a with
                | Some (a : Typedtree.expression) -> (
                  match handle_store a.exp_type with
                  | Some s when not (String.equal s store) ->
                    add_fact ctx Cross_store
                      (Printf.sprintf "%s handle passed to %s.%s" s store fn)
                      a.exp_loc
                  | Some _ | None -> ())
                | None -> ())
              args
          | (("unsafe_get" | "unsafe_set") as f) :: (("Array" | "Bytes") as m) :: _ ->
            let idx_name =
              match args with
              | _ :: (_, Some idx) :: _ -> (
                match idx.Typedtree.exp_desc with
                | Texp_ident (Path.Pident id, _, _) -> Ident.name id
                | _ -> "<expr>")
              | _ -> "<expr>"
            in
            add_fact ctx Unsafe_idx (Printf.sprintf "%s.%s index %s" m f idx_name) head_loc
          | [ ("<" | "<=" | ">" | ">=" | "=" | "<>" | "==" | "!=") ] ->
            List.iter
              (fun (_, a) ->
                match a with
                | Some { Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ } ->
                  add_fact ctx Idx_guard (Ident.name id) head_loc
                | _ -> ())
              args
          | _ -> ());
          (* raise with an allowlisted exception: prune the head so the
             ident case below stays quiet *)
          let allowlisted_raise =
            match (drop_stdlib parts, args) with
            | [ ("raise" | "raise_notrace") ], (_, Some arg) :: _ -> (
              match arg.exp_desc with
              | Texp_construct (_, cd, _) ->
                mem_string cd.cstr_name allowlisted_exceptions
              | _ -> false)
            | _ -> false
          in
          if allowlisted_raise then
            List.iter (fun (_, a) -> Option.iter (expr_it it) a) args
          else begin
            resolve_ident ctx p head_loc;
            List.iter (fun (_, a) -> Option.iter (expr_it it) a) args
          end)
        | Texp_try (body, cases) ->
          let guards = List.exists catch_all_case cases in
          if guards then ctx.try_depth <- ctx.try_depth + 1;
          expr_it it body;
          if guards then ctx.try_depth <- ctx.try_depth - 1;
          List.iter (fun c -> it.case it c) cases
        | Texp_assert (_, _) ->
          add_fact ctx Raises "assert" e.exp_loc;
          default.expr it e
        | Texp_setfield (_, { txt; _ }, _, rhs) ->
          (match handle_store rhs.exp_type with
          | Some s ->
            add_fact ctx Handle_escape
              (Printf.sprintf "%s handle stored in field %s" s
                 (String.concat "." (Longident.flatten txt)))
              e.exp_loc
          | None -> ());
          default.expr it e
        | Texp_function _ ->
          add_fact ctx Alloc "closure construction" e.exp_loc;
          (* a closure capturing a handle can outlive the frame that
             obtained it — an escape if a reset is reachable (R11).
             Captured = bound somewhere in this binding (ctx.locals)
             but not inside the closure itself. *)
          if ctx.handle_off = 0 then begin
            let inner = collect_locals e in
            let reported : (string, unit) Hashtbl.t = Hashtbl.create 4 in
            let d = Tast_iterator.default_iterator in
            let cap_expr it2 (e2 : Typedtree.expression) =
              (match e2.exp_desc with
              | Typedtree.Texp_ident (Path.Pident id, _, _)
                when is_local ctx id
                     && (not (Hashtbl.mem inner (Ident.unique_name id)))
                     && not (Hashtbl.mem reported (Ident.unique_name id)) -> (
                match handle_store e2.exp_type with
                | Some s ->
                  Hashtbl.replace reported (Ident.unique_name id) ();
                  add_fact ctx Handle_escape
                    (Printf.sprintf "%s handle '%s' captured by a closure" s
                       (Ident.name id))
                    e2.exp_loc
                | None -> ())
              | _ -> ());
              d.expr it2 e2
            in
            let cap_it = { d with expr = cap_expr } in
            cap_it.expr cap_it e
          end;
          default.expr it e
        | Texp_tuple _ ->
          add_fact ctx Alloc "tuple construction" e.exp_loc;
          default.expr it e
        | Texp_record _ ->
          add_fact ctx Alloc "record construction" e.exp_loc;
          default.expr it e
        | Texp_array _ ->
          add_fact ctx Alloc "array literal" e.exp_loc;
          default.expr it e
        | Texp_lazy _ ->
          add_fact ctx Alloc "lazy thunk" e.exp_loc;
          default.expr it e
        | Texp_construct ({ txt = Lident "::"; _ }, _, _ :: _) ->
          add_fact ctx Alloc "list cons" e.exp_loc;
          default.expr it e
        | Texp_construct (_, cd, _ :: _) ->
          add_fact ctx Alloc
            (Printf.sprintf "%s constructor with payload" cd.cstr_name)
            e.exp_loc;
          default.expr it e
        | Texp_variant (_, Some _) ->
          add_fact ctx Alloc "variant with payload" e.exp_loc;
          default.expr it e
        | _ -> default.expr it e)
  in
  let it = { default with expr = expr_it } in
  (* Strip the leading parameter chain: its Texp_function layers are
     the function's interface. Everything below is body. *)
  let rec strip (e : Typedtree.expression) =
    if not (has_attr "lint.alloc_ok" e.exp_attributes
            || has_attr "lint.raise_ok" e.exp_attributes
            || has_attr "lint.handle_ok" e.exp_attributes
            || has_justified_attr "lint.unsafe_idx_ok" e.exp_attributes)
       || e == top
    then
      match e.exp_desc with
      | Texp_function { cases; _ } ->
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            Option.iter (expr_it it) c.c_guard;
            strip c.c_rhs)
          cases
      | _ -> with_suppressed e (fun () -> expr_it it e)
    else with_suppressed e (fun () -> expr_it it e)
  in
  if spine then strip top else expr_it it top

(* --- structure walking ----------------------------------------------- *)

let pattern_var (p : Typedtree.value Typedtree.general_pattern) =
  let rec first (p : Typedtree.value Typedtree.general_pattern) =
    match p.pat_desc with
    | Typedtree.Tpat_var (id, name) -> Some (id, name.txt)
    | Typedtree.Tpat_alias (q, id, name) -> (
      match first q with Some v -> Some v | None -> Some (id, name.txt))
    | _ -> None
  in
  first p

let rec pattern_all_vars (p : Typedtree.value Typedtree.general_pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_var (id, _) -> [ id ]
  | Typedtree.Tpat_alias (q, id, _) -> id :: pattern_all_vars q
  | Typedtree.Tpat_tuple ps | Typedtree.Tpat_array ps ->
    List.concat_map pattern_all_vars ps
  | Typedtree.Tpat_construct (_, _, ps, _) -> List.concat_map pattern_all_vars ps
  | Typedtree.Tpat_variant (_, Some q, _) -> pattern_all_vars q
  | Typedtree.Tpat_record (fields, _) ->
    List.concat_map (fun (_, _, q) -> pattern_all_vars q) fields
  | Typedtree.Tpat_or (a, b, _) -> pattern_all_vars a @ pattern_all_vars b
  | Typedtree.Tpat_lazy q -> pattern_all_vars q
  | _ -> []

let build (loader : Cmt_loader.t) =
  let t = create () in
  (* every module-level binding across every unit is declared before
     any body is analyzed, so forward references (module A using
     module B, whatever the load order) resolve *)
  let bodies :
      (node * Typedtree.expression * (string, string) Hashtbl.t) list ref =
    ref []
  in
  List.iter
    (fun (u : Cmt_loader.unit_info) ->
      (match String.rindex_opt u.unit_id '.' with
      | Some i ->
        let last = String.sub u.unit_id (i + 1) (String.length u.unit_id - i - 1) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt t.unit_index last) in
        Hashtbl.replace t.unit_index last (prev @ [ u.unit_id ])
      | None ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt t.unit_index u.unit_id) in
        Hashtbl.replace t.unit_index u.unit_id (prev @ [ u.unit_id ]));
      let stamp_map : (string, string) Hashtbl.t = Hashtbl.create 64 in
      let rec walk_structure prefix (str : Typedtree.structure) =
        List.iter
          (fun (item : Typedtree.structure_item) ->
            match item.str_desc with
            | Tstr_value (_, vbs) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  let line, _ = loc_line_col vb.vb_loc in
                  let id =
                    match pattern_var vb.vb_pat with
                    | Some (_, name) -> prefix ^ "." ^ name
                    | None -> Printf.sprintf "%s.<toplevel:%d>" prefix line
                  in
                  List.iter
                    (fun vid -> Hashtbl.replace stamp_map (Ident.unique_name vid) id)
                    (pattern_all_vars vb.vb_pat);
                  let n =
                    add_node t ~id ~file:u.source ~line
                      ~attrs:(binding_attr_names vb.vb_attributes) ()
                  in
                  bodies := (n, vb.vb_expr, stamp_map) :: !bodies)
                vbs
            | Tstr_module mb -> walk_module prefix mb
            | Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
            | Tstr_eval (e, attrs) ->
              let line, _ = loc_line_col item.str_loc in
              let id = Printf.sprintf "%s.<toplevel:%d>" prefix line in
              let n =
                add_node t ~id ~file:u.source ~line ~attrs:(binding_attr_names attrs) ()
              in
              bodies := (n, e, stamp_map) :: !bodies
            | _ -> ())
          str.str_items
      and walk_module prefix (mb : Typedtree.module_binding) =
        let name =
          match mb.mb_name.txt with Some n -> n | None -> "_"
        in
        let rec descend (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_structure str -> walk_structure (prefix ^ "." ^ name) str
          | Tmod_constraint (me', _, _, _) -> descend me'
          | Tmod_functor (_, me') -> descend me'
          | _ -> ()
        in
        descend mb.mb_expr
      in
      walk_structure u.unit_id u.structure)
    loader.units;
  (* analyze bodies (deterministic order), then drain closure
     submissions — closures can nest further submissions *)
  let pending = ref [] in
  let analyze (n : node) expr stamp_map ~spine =
    let ctx =
      { graph = t;
        node = n;
        locals = collect_locals expr;
        stamp_map;
        alloc_off = 0;
        raise_off = 0;
        handle_off = 0;
        unsafe_off = 0;
        try_depth = 0;
        pending_closures = [] }
    in
    walk_body ctx ~spine expr;
    n.calls <- List.rev n.calls;
    n.facts <- List.rev n.facts;
    pending := !pending @ List.rev ctx.pending_closures;
    stamp_map
  in
  List.iter (fun (n, e, sm) -> ignore (analyze n e sm ~spine:true)) (List.rev !bodies);
  let closure_counter : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let rec drain () =
    match !pending with
    | [] -> ()
    | (owner_id, closure) :: rest ->
      pending := rest;
      (match find t owner_id with
      | None -> ()
      | Some owner ->
        let line, _ = loc_line_col closure.Typedtree.exp_loc in
        let id =
          let base = Printf.sprintf "%s.<fun:%d>" owner_id line in
          match Hashtbl.find_opt closure_counter base with
          | None ->
            Hashtbl.replace closure_counter base 1;
            base
          | Some k ->
            Hashtbl.replace closure_counter base (k + 1);
            Printf.sprintf "%s#%d" base k
        in
        let n = add_node t ~id ~file:owner.file ~line () in
        (* the closure keeps the owner's unit-level stamp map: it can
           refer to any module-level binding of its unit *)
        let sm =
          match List.find_opt (fun (o, _, _) -> String.equal o.id owner_id)
                  (List.rev !bodies)
          with
          | Some (_, _, sm) -> sm
          | None -> Hashtbl.create 1
        in
        ignore (analyze n closure sm ~spine:true);
        add_submission t ~root:id ~file:owner.file ~line);
      drain ()
  in
  drain ();
  t.submissions <- List.rev t.submissions;
  t
