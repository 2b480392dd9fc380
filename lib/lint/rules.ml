(* The repo-specific rule catalogue, in two phases. R1, R2 and R4–R7
   are syntactic: they walk the parsetree with [Ast_iterator] — no
   typing environment — so each documents the approximation it makes
   and offers an attribute escape hatch for the sites the approximation
   gets wrong. R8 and R10–R14 are typed and interprocedural: they
   consume the {!Callgraph} built from [.cmt] artifacts and report
   findings with a witness call chain. R3 and R9 are retired and their
   ids are not reused. See DESIGN.md §9 for the rationale per rule. *)

open Parsetree

(* --- contexts ------------------------------------------------------ *)

type file_context = {
  path : string;  (** '/'-separated path relative to the lint root *)
  add : Finding.t -> unit;
}

type tree_context = {
  tree_files : string list;  (** every scanned file, relative paths *)
  tree_add : Finding.t -> unit;
}

type typed_context = {
  typed_files : string list;  (** scanned files — typed roots are scoped to these *)
  graph : Callgraph.t;
  typed_add : Finding.t -> unit;
}

type kind =
  | File_rule of (file_context -> structure -> unit)
  | Tree_rule of (tree_context -> unit)
  | Typed_rule of (typed_context -> unit)

type t = {
  id : string;
  name : string;
  severity : Finding.severity;
  doc : string;
  kind : kind;
}

(* --- shared helpers ------------------------------------------------ *)

let finding ctx ~rule ~severity (loc : Location.t) msg =
  let p = loc.loc_start in
  ctx.add
    (Finding.make ~rule ~severity ~file:ctx.path ~line:p.pos_lnum
       ~col:(p.pos_cnum - p.pos_bol) msg)

let flatten_ident (lid : Longident.t) =
  match Longident.flatten lid with
  | "Stdlib" :: rest -> rest
  | l -> l
  | exception _ -> []

let has_attr name (attrs : attributes) =
  List.exists (fun (a : attribute) -> String.equal a.attr_name.txt name) attrs

let under_prefix prefix path =
  let pl = String.length prefix in
  String.length path >= pl && String.equal (String.sub path 0 pl) prefix

let core_libs = [ "lib/core/"; "lib/rpki/"; "lib/netaddr/"; "lib/arena/" ]
let in_core_libs path = List.exists (fun p -> under_prefix p path) core_libs
let is_ml path = Filename.check_suffix path ".ml"

(* --- a scope-aware expression walker ------------------------------- *)

(* Builds an [Ast_iterator] that threads a {!Scope.t} through every
   binding form ([let]/[let rec], function parameters, match cases,
   [for] indices, module-level [let]s and [include]s of a module path —
   unwound at the end of each submodule), calling [visit] on each
   expression before recursing.
   [visit] returns [false] to prune the subtree (suppression
   attributes); [visit_binding] likewise gates whole value bindings. *)
let scoped_iterator ~scope ~visit ?(visit_binding = fun _ -> true) () =
  let default = Ast_iterator.default_iterator in
  let iter_cases (it : Ast_iterator.iterator) cases =
    List.iter
      (fun (c : case) ->
        Scope.with_names scope (Scope.pattern_vars c.pc_lhs) (fun () ->
            Option.iter (it.expr it) c.pc_guard;
            it.expr it c.pc_rhs))
      cases
  in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    if visit e then
      match e.pexp_desc with
      | Pexp_let (Nonrecursive, vbs, body) ->
        List.iter (fun vb -> if visit_binding vb then it.expr it vb.pvb_expr) vbs;
        Scope.with_names scope (Scope.binding_vars vbs) (fun () -> it.expr it body)
      | Pexp_let (Recursive, vbs, body) ->
        Scope.with_names scope (Scope.binding_vars vbs) (fun () ->
            List.iter (fun vb -> if visit_binding vb then it.expr it vb.pvb_expr) vbs;
            it.expr it body)
      | Pexp_fun (_, default_arg, pat, body) ->
        Option.iter (it.expr it) default_arg;
        Scope.with_names scope (Scope.pattern_vars pat) (fun () -> it.expr it body)
      | Pexp_function cases -> iter_cases it cases
      | Pexp_match (scrut, cases) ->
        it.expr it scrut;
        iter_cases it cases
      | Pexp_try (body, cases) ->
        it.expr it body;
        iter_cases it cases
      | Pexp_for (pat, lo, hi, _, body) ->
        it.expr it lo;
        it.expr it hi;
        Scope.with_names scope (Scope.pattern_vars pat) (fun () -> it.expr it body)
      | _ -> default.expr it e
  in
  let structure (it : Ast_iterator.iterator) items =
    let saved = Scope.snapshot scope in
    List.iter
      (fun (item : structure_item) ->
        (* [let rec] at module level: the names are visible in their own
           right-hand sides, so push before visiting. *)
        (match item.pstr_desc with
        | Pstr_value (Recursive, vbs) -> Scope.push scope (Scope.binding_vars vbs)
        | _ -> ());
        it.structure_item it item;
        match item.pstr_desc with
        | Pstr_value (Nonrecursive, vbs) -> Scope.push scope (Scope.binding_vars vbs)
        (* [include M] may bring M's comparators: from here on, a bare
           [compare] names the one M may define. *)
        | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident _; _ }; _ } ->
          Scope.push scope [ "compare"; "equal"; "hash" ]
        | _ -> ())
      items;
    Scope.restore scope saved
  in
  let value_binding (it : Ast_iterator.iterator) (vb : value_binding) =
    if visit_binding vb then default.value_binding it vb
  in
  { default with expr; structure; value_binding }

(* --- R1: no polymorphic compare/equality/hash ----------------------- *)

(* Modules whose main type is abstract and carries dedicated
   compare/equal/hash functions; structural equality on their values is
   either wrong today (signed Int64 ordering inside [Ipv6.t]) or one
   representation change away from wrong. *)
let tracked_modules = [ "Pfx"; "Ipv4"; "Ipv6"; "Vrp"; "Asnum"; "Roa"; "Route"; "Ptrie" ]

(* Functions of those modules that return plain scalars (int / string /
   bool / simple enums), for which polymorphic equality is fine — keeps
   the [=] heuristic quiet on [Pfx.length p = 24] and friends. *)
let scalar_returning =
  [ "length"; "to_int"; "to_string"; "bits"; "addr_bits"; "afi"; "is_zero"; "hash";
    "compare"; "equal"; "common_length"; "max_asn"; "cardinal"; "count"; "mem";
    "subset"; "strict_subset"; "is_left_child"; "bit" ]

(* Record fields of tracked modules holding abstract values (so
   [v.Vrp.prefix = w.Vrp.prefix] is flagged but [v.Vrp.max_len = 24] is
   not). *)
let abstract_fields = [ "prefix"; "net" ]

let mem_string s l = List.exists (String.equal s) l

(* Does this operand of [=]/[<>] syntactically produce an abstract value
   of a tracked module? *)
let tracked_abstract (e : expression) =
  (* The qualifier may nest ([Ipv6.Prefix.of_string]): a path counts as
     tracked when any module segment is a tracked module. *)
  let tracked_qualifier ms = List.exists (fun m -> mem_string m tracked_modules) ms in
  let from_path parts =
    match List.rev parts with
    | f :: (_ :: _ as ms) -> tracked_qualifier ms && not (mem_string f scalar_returning)
    | _ -> false
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> from_path (flatten_ident txt)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> from_path (flatten_ident txt)
  | Pexp_field (_, { txt; _ }) -> (
    match List.rev (flatten_ident txt) with
    | f :: (_ :: _ as ms) -> tracked_qualifier ms && mem_string f abstract_fields
    | [ f ] -> mem_string f abstract_fields
    | [] -> false)
  | Pexp_construct ({ txt; _ }, Some _) -> (
    match List.rev (flatten_ident txt) with
    | _ :: (_ :: _ as ms) -> tracked_qualifier ms
    | _ -> false)
  | _ -> false

let r1_check ctx st =
  let scope = Scope.create () in
  let rule = "R1" and severity = Finding.Error in
  let visit (e : expression) =
    if has_attr "lint.poly_ok" e.pexp_attributes then false
    else begin
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match flatten_ident txt with
        | [ "compare" ] when not (Scope.is_bound scope "compare") ->
          finding ctx ~rule ~severity loc
            "polymorphic compare: use the module-specific compare (Pfx.compare, \
             Vrp.compare, Int.compare, ...) or annotate [@lint.poly_ok]"
        | [ "compare" ] -> ()
        | [ "Hashtbl"; "hash" ] ->
          finding ctx ~rule ~severity loc
            "polymorphic Hashtbl.hash: hash the concrete representation directly (see \
             Pfx.hash) or annotate [@lint.poly_ok]"
        | [ "List"; ("mem" | "memq") ] ->
          finding ctx ~rule ~severity loc
            "polymorphic List.mem: use List.exists with an explicit equality \
             (String.equal, Asnum.equal, ...) or annotate [@lint.poly_ok]"
        | _ -> ())
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, [ (_, a); (_, b) ]) -> (
        match flatten_ident txt with
        | [ ("=" | "<>" | "==" | "!=") as op ] when tracked_abstract a || tracked_abstract b ->
          finding ctx ~rule ~severity loc
            (Printf.sprintf
               "polymorphic (%s) on an abstract value: use the module's equal/compare \
                or annotate [@lint.poly_ok]"
               op)
        | _ -> ())
      | _ -> ());
      true
    end
  in
  let visit_binding (vb : value_binding) = not (has_attr "lint.poly_ok" vb.pvb_attributes) in
  let it = scoped_iterator ~scope ~visit ~visit_binding () in
  it.structure it st

(* --- R2: no unsafe / partial stdlib in the core libraries ----------- *)

let r2_check ctx st =
  let rule = "R2" and severity = Finding.Error in
  let default = Ast_iterator.default_iterator in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    if has_attr "lint.unsafe_ok" e.pexp_attributes then ()
    else begin
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match flatten_ident txt with
        | (("Obj" | "Marshal" | "Str") as root) :: _ ->
          finding ctx ~rule ~severity loc
            (Printf.sprintf
               "%s.* is banned in the core libraries (lib/core, lib/rpki, lib/netaddr, \
                lib/arena)"
               root)
        | [ "List"; ("hd" | "nth" | "tl") ] | [ "Option"; "get" ] ->
          finding ctx ~rule ~severity loc
            "partial stdlib function in a core library: pattern-match explicitly, or \
             use Option.value / annotate [@lint.unsafe_ok]"
        | _ -> ())
      | _ -> ());
      default.expr it e
    end
  in
  let value_binding (it : Ast_iterator.iterator) (vb : value_binding) =
    if not (has_attr "lint.unsafe_ok" vb.pvb_attributes) then default.value_binding it vb
  in
  let it = { default with expr; value_binding } in
  it.structure it st

(* --- R4: every lib/**.ml has a matching .mli ------------------------ *)

let r4_check tctx =
  let have_mli =
    List.filter (fun f -> Filename.check_suffix f ".mli") tctx.tree_files
  in
  List.iter
    (fun f ->
      if is_ml f && under_prefix "lib/" f then
        let want = f ^ "i" in
        if not (mem_string want have_mli) then
          tctx.tree_add
            (Finding.make ~rule:"R4" ~severity:Finding.Error ~file:f ~line:1 ~col:0
               "library module has no .mli: every lib/**.ml must declare its interface"))
    tctx.tree_files

(* --- R5: no stdout printing from library code ----------------------- *)

let stdout_idents =
  [ [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ]; [ "print_char" ];
    [ "print_int" ]; [ "print_float" ]; [ "print_bytes" ]; [ "Printf"; "printf" ];
    [ "Format"; "printf" ]; [ "Format"; "print_string" ]; [ "Format"; "print_newline" ];
    [ "Format"; "print_flush" ]; [ "Format"; "open_box" ] ]

let r5_check ctx st =
  let rule = "R5" and severity = Finding.Error in
  let default = Ast_iterator.default_iterator in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    if has_attr "lint.stdout_ok" e.pexp_attributes then ()
    else begin
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let parts = flatten_ident txt in
        if List.exists (fun banned -> List.equal String.equal banned parts) stdout_idents
        then
          finding ctx ~rule ~severity loc
            "stdout printing from lib/: return data or take a Format formatter; \
             printing belongs in bin/ and bench/ (or annotate [@lint.stdout_ok])"
      | _ -> ());
      default.expr it e
    end
  in
  let it = { default with expr } in
  it.structure it st

(* --- R6: Pdu.encode only inside the encode-once core ---------------- *)

(* The fan-out refactor's whole point is that PDU serialization happens
   once per payload, in [Cache_server]'s segment cache — a stray
   [Pdu.encode] in a serving loop silently reintroduces the
   O(sessions × PDUs) cost. The check is syntactic: any ident path
   ending in [Pdu.encode] (module aliases included: [Rtr.Pdu.encode])
   outside the two core files and test code. Genuine one-offs — an
   Error Report echoing the offending PDU, a micro-bench measuring the
   encoder itself — carry [@lint.encode_ok]. *)
let r6_allowed = [ "lib/rtr/pdu.ml"; "lib/rtr/cache_server.ml" ]
let r6_exempt path = mem_string path r6_allowed || under_prefix "test/" path

let r6_check ctx st =
  let rule = "R6" and severity = Finding.Error in
  let default = Ast_iterator.default_iterator in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    if has_attr "lint.encode_ok" e.pexp_attributes then ()
    else begin
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match List.rev (flatten_ident txt) with
        | "encode" :: "Pdu" :: _ ->
          finding ctx ~rule ~severity loc
            "per-PDU Pdu.encode outside the encode-once core: fan out the shared \
             segments from Cache_server.handle_wire (or batch with Pdu.encode_all); \
             annotate a genuine one-off [@lint.encode_ok]"
        | _ -> ())
      | _ -> ());
      default.expr it e
    end
  in
  let value_binding (it : Ast_iterator.iterator) (vb : value_binding) =
    if not (has_attr "lint.encode_ok" vb.pvb_attributes) then default.value_binding it vb
  in
  let it = { default with expr; value_binding } in
  it.structure it st

(* --- R7: no allocation sites in [@hot] functions -------------------- *)

(* The flat-arena data plane promises zero per-query allocation; hot
   functions advertise that with [@@hot], and this rule keeps the
   promise syntactically: inside a hot binding's body, any expression
   that the compiler must box — tuple, record, closure, [ref] cell,
   list cons or other payload-carrying constructor, array or lazy —
   is flagged. The check sees only syntax: calls that allocate
   internally (Array.make, sprintf, ...) pass unseen, and constant
   constructors / immediate ints are correctly free. Sites that are
   deliberate (e.g. building the result list of a view function) take
   [@lint.alloc_ok] on the expression or the binding. *)

let r7_check ctx st =
  let rule = "R7" and severity = Finding.Error in
  let report loc what =
    finding ctx ~rule ~severity loc
      (Printf.sprintf
         "[@hot] function allocates (%s): keep the hot path allocation-free — hoist or \
          restructure, or annotate [@lint.alloc_ok]"
         what)
  in
  let default = Ast_iterator.default_iterator in
  (* Walks a hot body; every syntactic allocation site is a finding. *)
  let rec body_it =
    let expr (it : Ast_iterator.iterator) (e : expression) =
      if has_attr "lint.alloc_ok" e.pexp_attributes then ()
      else
        match e.pexp_desc with
        | Pexp_construct ({ txt = Lident "::"; _ }, Some payload) ->
          report e.pexp_loc "list cons";
          (* the cons cell's (head, tail) pair is part of this site, not
             a second allocation: recurse into the elements directly *)
          (match payload.pexp_desc with
          | Pexp_tuple els -> List.iter (it.expr it) els
          | _ -> it.expr it payload)
        | _ ->
          (match e.pexp_desc with
          | Pexp_tuple _ -> report e.pexp_loc "tuple construction"
          | Pexp_record _ -> report e.pexp_loc "record construction"
          | Pexp_array _ -> report e.pexp_loc "array literal"
          | Pexp_fun _ | Pexp_function _ -> report e.pexp_loc "closure construction"
          | Pexp_lazy _ -> report e.pexp_loc "lazy thunk"
          | Pexp_construct ({ txt; _ }, Some _) ->
            report e.pexp_loc
              (Printf.sprintf "%s constructor with payload"
                 (String.concat "." (flatten_ident txt)))
          | Pexp_variant (_, Some _) -> report e.pexp_loc "variant with payload"
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "ref"; loc }; _ }, _ :: _)
            ->
            report loc "ref cell"
          | _ -> ());
          default.expr it e
    in
    let value_binding (it : Ast_iterator.iterator) (vb : value_binding) =
      if not (has_attr "lint.alloc_ok" vb.pvb_attributes) then default.value_binding it vb
    in
    { default with expr; value_binding }
  (* The leading parameter chain is the function's interface, not an
     allocation inside it. *)
  and check_hot_body (e : expression) =
    match e.pexp_desc with
    | Pexp_fun (_, default_arg, _, body) ->
      Option.iter (body_it.expr body_it) default_arg;
      check_hot_body body
    | Pexp_newtype (_, body) -> check_hot_body body
    | Pexp_constraint (body, _) -> check_hot_body body
    | _ -> body_it.expr body_it e
  in
  let value_binding (it : Ast_iterator.iterator) (vb : value_binding) =
    if has_attr "hot" vb.pvb_attributes then begin
      if not (has_attr "lint.alloc_ok" vb.pvb_attributes) then check_hot_body vb.pvb_expr
    end
    else default.value_binding it vb
  in
  let it = { default with value_binding } in
  it.structure it st

(* --- the typed phase (R8, R10–R14) --------------------------------------- *)

(* Shared plumbing: scope roots to the scanned file set (the fixture
   corpus and anything under a .lint-ignore directory produce cmts
   too, when built, but must not seed findings), walk the reachable
   set, and dedupe findings by site — the first root to reach a site
   owns the finding, and roots are visited in sorted id order, so the
   winner is deterministic. *)

let witness_of_chain graph chain =
  List.filter_map
    (fun id ->
      match Callgraph.find graph id with
      | Some (n : Callgraph.node) ->
        Some { Finding.step_fn = n.id; step_file = n.file; step_line = n.line }
      | None -> None)
    chain

let typed_findings tctx ~rule ~fact_kind ~waiver ~follow_guarded ~skip_node ~message roots =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (root_id, origin) ->
      List.iter
        (fun ((n : Callgraph.node), chain) ->
          if not (skip_node ~root_id n) then
            List.iter
              (fun (f : Callgraph.fact) ->
                if f.kind = fact_kind then begin
                  let key = Printf.sprintf "%s|%d|%d" n.file f.fact_line f.fact_col in
                  if not (Hashtbl.mem seen key) then begin
                    Hashtbl.replace seen key ();
                    tctx.typed_add
                      (Finding.make
                         ~witness:(witness_of_chain tctx.graph chain)
                         ~rule ~severity:Finding.Error ~file:n.file ~line:f.fact_line
                         ~col:f.fact_col
                         (message ~origin ~detail:f.detail))
                  end
                end)
              n.facts)
        (Callgraph.reach tctx.graph ~waiver ~follow_guarded root_id))
    roots

let in_typed_scope tctx file = mem_string file tctx.typed_files

(* R8: the transitive closure of every [@@hot] body is allocation-free.
   The root's own body is R7's (syntactic) job — and so is any hot
   callee's, being a root itself — so R8 reports only on reachable
   non-hot helpers. *)
let r8_check tctx =
  let roots =
    List.filter_map
      (fun (n : Callgraph.node) ->
        if mem_string "hot" n.attrs && in_typed_scope tctx n.file then Some (n.id, n.id)
        else None)
      (Callgraph.nodes tctx.graph)
  in
  typed_findings tctx ~rule:"R8" ~fact_kind:Callgraph.Alloc ~waiver:"lint.alloc_ok"
    ~follow_guarded:true
    ~skip_node:(fun ~root_id (n : Callgraph.node) ->
      String.equal n.id root_id || mem_string "hot" n.attrs)
    ~message:(fun ~origin ~detail ->
      Printf.sprintf
        "allocation (%s) reachable from [@hot] %s: the hot closure must be \
         allocation-free — hoist, restructure, or annotate [@lint.alloc_ok]"
        detail origin)
    roots

(* R10: event handlers must not let exceptions escape. Roots are the
   RTR state machines' input functions, the cache server's handlers,
   and every closure handed to the netsim clock; [raise Exit] and
   raises under a catch-all [try] are allowed. *)
let r10_handler_fns =
  [ "connected"; "disconnected"; "receive"; "tick"; "poisoned"; "pending" ]

let r10_named_root (n : Callgraph.node) =
  match List.rev (String.split_on_char '.' n.id) with
  | fn :: m :: _ ->
    (String.equal m "Router_client" && mem_string fn r10_handler_fns)
    || (String.equal m "Cache_server" && under_prefix "handle" fn)
  | _ -> false

let r10_check tctx =
  let named =
    List.filter_map
      (fun (n : Callgraph.node) ->
        if r10_named_root n && in_typed_scope tctx n.file then Some (n.id, n.id)
        else None)
      (Callgraph.nodes tctx.graph)
  in
  let callbacks =
    List.filter_map
      (fun (s : Callgraph.submission) ->
        if in_typed_scope tctx s.sub_file then
          Some (s.sub_root, Printf.sprintf "the clock callback at %s:%d" s.sub_file s.sub_line)
        else None)
      (Callgraph.submissions tctx.graph)
  in
  typed_findings tctx ~rule:"R10" ~fact_kind:Callgraph.Raises ~waiver:"lint.raise_ok"
    ~follow_guarded:false
    ~skip_node:(fun ~root_id:_ _ -> false)
    ~message:(fun ~origin ~detail ->
      Printf.sprintf
        "may raise (%s) on a path from %s: event handlers must not let exceptions \
         escape — catch and degrade, or annotate [@lint.raise_ok]"
        detail origin)
    (named @ callbacks)

(* R11: a handle that escapes into long-lived storage (ref, record
   field, container, closure capture) must not be able to reach a
   reset/clear of its issuing store — once the store recycles, the
   stored handle silently indexes reused slots. The escape and the
   reset need not sit in the same function: the reset is looked for in
   the whole call closure of the escaping binding, and the finding
   carries the witness chain from the escape to the resetting node. *)
let r11_check tctx =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (n : Callgraph.node) ->
      let escapes =
        List.filter (fun (f : Callgraph.fact) -> f.kind = Callgraph.Handle_escape) n.facts
      in
      if escapes <> [] && in_typed_scope tctx n.file then begin
        let reachable =
          Callgraph.reach tctx.graph ~waiver:"lint.handle_ok" ~follow_guarded:true n.id
        in
        List.iter
          (fun (f : Callgraph.fact) ->
            let store =
              match String.index_opt f.detail ' ' with
              | Some i -> String.sub f.detail 0 i
              | None -> f.detail
            in
            match
              List.find_opt
                (fun ((m : Callgraph.node), _) ->
                  List.exists
                    (fun (g : Callgraph.fact) ->
                      g.kind = Callgraph.Store_reset && String.equal g.detail store)
                    m.facts)
                reachable
            with
            | Some (m, chain) ->
              let key = Printf.sprintf "%s|%d|%d" n.file f.fact_line f.fact_col in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                tctx.typed_add
                  (Finding.make
                     ~witness:(witness_of_chain tctx.graph chain)
                     ~rule:"R11" ~severity:Finding.Error ~file:n.file ~line:f.fact_line
                     ~col:f.fact_col
                     (Printf.sprintf
                        "%s while %s.reset/clear is reachable (via %s): the stored handle \
                         survives the recycling and indexes reused slots — keep handles \
                         frame-local, or annotate [@lint.handle_ok]"
                        f.detail store m.id))
              end
            | None -> ())
          escapes
      end)
    (Callgraph.nodes tctx.graph)

(* R12: per-argument handle provenance on call edges into the arena
   stores — a handle only means something to the store that issued
   it. Single-node findings; the self-referential witness keeps the
   report shape uniform with R8–R11. *)
let self_witness (n : Callgraph.node) =
  [ { Finding.step_fn = n.id; step_file = n.file; step_line = n.line } ]

let r12_check tctx =
  List.iter
    (fun (n : Callgraph.node) ->
      if in_typed_scope tctx n.file && not (mem_string "lint.handle_ok" n.attrs) then
        List.iter
          (fun (f : Callgraph.fact) ->
            if f.kind = Callgraph.Cross_store then
              tctx.typed_add
                (Finding.make ~witness:(self_witness n) ~rule:"R12" ~severity:Finding.Error
                   ~file:n.file ~line:f.fact_line ~col:f.fact_col
                   (Printf.sprintf
                      "cross-store handle flow: %s — a handle only indexes the store that \
                       issued it; fetch one from the right store, or annotate \
                       [@lint.handle_ok]"
                      f.detail)))
          n.facts)
    (Callgraph.nodes tctx.graph)

(* R13: every unsafe array access must be dominated by a bounds or
   liveness comparison on the same index identifier, in the same
   function — or carry a justified [@@lint.unsafe_idx_ok "..."]
   (empty waivers are dropped at graph-build time and do not count). *)
let r13_check tctx =
  List.iter
    (fun (n : Callgraph.node) ->
      if in_typed_scope tctx n.file && not (mem_string "lint.unsafe_idx_ok" n.attrs) then begin
        let guards =
          List.filter_map
            (fun (f : Callgraph.fact) ->
              if f.kind = Callgraph.Idx_guard then Some f.detail else None)
            n.facts
        in
        List.iter
          (fun (f : Callgraph.fact) ->
            if f.kind = Callgraph.Unsafe_idx then begin
              let idx =
                match String.rindex_opt f.detail ' ' with
                | Some i -> String.sub f.detail (i + 1) (String.length f.detail - i - 1)
                | None -> f.detail
              in
              if String.equal idx "<expr>" || not (mem_string idx guards) then
                tctx.typed_add
                  (Finding.make ~witness:(self_witness n) ~rule:"R13"
                     ~severity:Finding.Error ~file:n.file ~line:f.fact_line ~col:f.fact_col
                     (Printf.sprintf
                        "unchecked %s: no bounds/liveness comparison on the index in this \
                         function — guard it, or annotate the binding \
                         [@@lint.unsafe_idx_ok \"justification\"]"
                        f.detail))
            end)
          n.facts
      end)
    (Callgraph.nodes tctx.graph)

(* R14: lib/ holds only what production reaches. Production is every
   binding of bin/, bench/ and examples/, plus lib/'s own toplevel
   effects (a [let () =], a functor application); a lib/ value binding
   none of them reaches is test-only code and must say why with a
   justified [@@lint.test_only "reason"] (an empty reason is dropped
   at graph-build time, as R13's). A waived binding is a declared test
   entry point, so what it reaches needs no waiver of its own. The
   whole graph counts, scanned or not, so roots under examples/ need
   no scan path of their own. Synthetic nodes are never findings; a
   clock closure's body is its owner's, so it is reached with it. *)
let production_dirs = [ "bin/"; "bench/"; "examples/" ]

let has_part prefix (n : Callgraph.node) =
  List.exists (String.starts_with ~prefix) (String.split_on_char '.' n.id)

let is_synthetic n = has_part "<toplevel:" n || has_part "<fun:" n

let r14_check tctx =
  let graph = tctx.graph in
  let all = Callgraph.nodes graph in
  let reached : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let visit id =
    if not (Hashtbl.mem reached id) then begin
      Hashtbl.replace reached id ();
      Queue.add id queue
    end
  in
  List.iter
    (fun (n : Callgraph.node) ->
      if List.exists (fun d -> under_prefix d n.file) production_dirs
         || under_prefix "lib/" n.file
            && (has_part "<toplevel:" n || mem_string "lint.test_only" n.attrs)
      then visit n.id)
    all;
  while not (Queue.is_empty queue) do
    match Callgraph.find graph (Queue.pop queue) with
    | Some n -> List.iter (fun (c : Callgraph.call) -> visit c.callee) n.calls
    | None -> ()
  done;
  List.iter
    (fun (n : Callgraph.node) ->
      if under_prefix "lib/" n.file
         && in_typed_scope tctx n.file
         && (not (is_synthetic n))
         && not (Hashtbl.mem reached n.id)
      then
        tctx.typed_add
          (Finding.make ~witness:(self_witness n) ~rule:"R14" ~severity:Finding.Error
             ~file:n.file ~line:n.line ~col:0
             (Printf.sprintf
                "%s is reached from no binding under bin/, bench/ or examples/ and from no \
                 lib/ toplevel effect: delete it, move it into the test that uses it, or \
                 annotate [@@lint.test_only \"reason\"]"
                n.id)))
    all

(* --- registry ------------------------------------------------------- *)

let all : t list =
  [ { id = "R1";
      name = "poly-compare";
      severity = Finding.Error;
      doc =
        "No polymorphic compare/equality/hash where a module-specific one exists: bare \
         `compare` (unless locally shadowed), Hashtbl.hash, List.mem, and =/<> applied \
         to abstract Pfx/Ipv4/Ipv6/Vrp/Asnum/Roa/Route values. Escape: [@lint.poly_ok].";
      kind = File_rule r1_check };
    { id = "R2";
      name = "unsafe-stdlib";
      severity = Finding.Error;
      doc =
        "lib/core, lib/rpki, lib/netaddr and lib/arena must not use Obj.*, \
         Marshal.*, Str.*, or the partial List.hd/List.tl/List.nth/Option.get. Escape: \
         [@lint.unsafe_ok].";
      kind =
        File_rule (fun ctx st -> if in_core_libs ctx.path then r2_check ctx st) };
    { id = "R4";
      name = "missing-mli";
      severity = Finding.Error;
      doc = "Every lib/**.ml has a matching .mli.";
      kind = Tree_rule r4_check };
    { id = "R5";
      name = "stdout-in-lib";
      severity = Finding.Error;
      doc =
        "No printing to stdout from lib/ (print_string, Printf.printf, Format.printf, \
         ...): stdout is reserved for bin/ and bench/. Escape: [@lint.stdout_ok].";
      kind =
        File_rule (fun ctx st -> if under_prefix "lib/" ctx.path then r5_check ctx st) };
    { id = "R6";
      name = "encode-outside-core";
      severity = Finding.Error;
      doc =
        "Pdu.encode may only be called from lib/rtr/pdu.ml, lib/rtr/cache_server.ml and \
         test code: per-session re-encoding defeats the encode-once fan-out. Escape: \
         [@lint.encode_ok].";
      kind = File_rule (fun ctx st -> if not (r6_exempt ctx.path) then r6_check ctx st) };
    { id = "R7";
      name = "alloc-in-hot";
      severity = Finding.Error;
      doc =
        "Functions marked [@@hot] must contain no syntactic allocation site (tuple, \
         record, closure, ref cell, list cons or other payload-carrying constructor, \
         array literal, lazy): the arena data plane is zero-allocation per query. \
         Allocating calls (Array.make, sprintf, ...) are beyond a syntactic check. \
         Escape: [@lint.alloc_ok].";
      kind = File_rule r7_check };
    { id = "R8";
      name = "hot-closure-alloc";
      severity = Finding.Error;
      doc =
        "[typed] Everything transitively reachable from a [@@hot] body must be \
         allocation-free, not just the body itself (R7): helpers called — or passed \
         around — from the hot path are walked through the .cmt call graph, and every \
         finding carries the witness chain. Hot callees are excluded (R7 covers them \
         as roots). Escape: [@lint.alloc_ok] on any binding along the chain.";
      kind = Typed_rule r8_check };
    { id = "R10";
      name = "exception-escape";
      severity = Finding.Error;
      doc =
        "[typed] Router_client handlers (connected/disconnected/receive/tick/\
         poisoned/pending), Cache_server.handle*, and closures handed to \
         Clock.at/Wheel.advance must not reach a raise \
         (raise/failwith/invalid_arg/assert, or a known-partial stdlib call) outside \
         the allowlist: `raise Exit` and raises under a catch-all try are fine. \
         Escape: [@lint.raise_ok] on any binding along the chain.";
      kind = Typed_rule r10_check };
    { id = "R11";
      name = "handle-escape";
      severity = Finding.Error;
      doc =
        "[typed] An arena handle (Itrie.handle / Vrp_db.handle / Bgp_db.handle) stored \
         in a ref, record field or container, or captured by a closure, must not have \
         the issuing store's reset/clear reachable from the escaping binding: reset \
         recycles every slot and the stored handle silently indexes reused columns. \
         The finding carries the witness chain from the escape to the reset. Escape: \
         [@lint.handle_ok].";
      kind = Typed_rule r11_check };
    { id = "R12";
      name = "cross-store-handle";
      severity = Finding.Error;
      doc =
        "[typed] A handle typed for store A must not flow into a function of store B: \
         per-argument provenance (from the transparent handle aliases in the Typedtree) \
         is checked on every call edge into Itrie/Vrp_db/Bgp_db. Escape: \
         [@lint.handle_ok].";
      kind = Typed_rule r12_check };
    { id = "R13";
      name = "unchecked-unsafe";
      severity = Finding.Error;
      doc =
        "[typed] Every Array/Bytes.unsafe_get/unsafe_set must be dominated by a \
         bounds/liveness comparison on the same index identifier in the same function, \
         or carry [@@lint.unsafe_idx_ok \"justification\"] — the justification string is \
         mandatory; an empty waiver does not count.";
      kind = Typed_rule r13_check };
    { id = "R14";
      name = "test-only-lib";
      severity = Finding.Error;
      doc =
        "[typed] Every lib/ value binding is reached, through the .cmt call graph, from \
         a binding under bin/, bench/ or examples/ or from a lib/ toplevel effect; \
         references through module aliases, binding operators, functor arguments and \
         clock closures count. A binding only tests reach is deleted, moved into its \
         test, or carries [@@lint.test_only \"reason\"] — the reason is mandatory; an \
         empty waiver does not count.";
      kind = Typed_rule r14_check };
  ]

let find ids =
  List.filter (fun r -> List.exists (fun id -> String.equal id r.id) ids) all

let ids () = List.map (fun r -> r.id) all
