(* Lexical-scope bookkeeping for the syntactic rules. The checkers walk
   the parsetree only — there is no typing environment — so "is this
   identifier the polymorphic [compare]?" is answered by tracking every
   binding form that could shadow the name: module-level [let]s seen so
   far in the current structure, [let ... in], function parameters,
   match/try/function case patterns and [for] indices; an [include] of
   a module path counts as binding [compare], [equal] and [hash]. Counts
   (not booleans) so re-entrant shadowing unwinds correctly. *)

type t = (string, int) Hashtbl.t

let create () : t = Hashtbl.create 16

let is_bound (t : t) name =
  match Hashtbl.find_opt t name with Some n -> n > 0 | None -> false

let push (t : t) names =
  List.iter
    (fun n ->
      let c = match Hashtbl.find_opt t n with Some c -> c | None -> 0 in
      Hashtbl.replace t n (c + 1))
    names

let pop (t : t) names =
  List.iter
    (fun n ->
      match Hashtbl.find_opt t n with
      | Some c when c > 1 -> Hashtbl.replace t n (c - 1)
      | Some _ -> Hashtbl.remove t n
      | None -> ())
    names

let with_names (t : t) names f =
  push t names;
  Fun.protect ~finally:(fun () -> pop t names) f

(* Snapshot/restore brackets a submodule: bindings made inside must not
   leak into the items that follow it. *)
let snapshot (t : t) = Hashtbl.copy t

let restore (t : t) (saved : t) =
  Hashtbl.reset t;
  Hashtbl.iter (fun k v -> Hashtbl.replace t k v) saved

let rec pattern_vars (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (q, { txt; _ }) -> txt :: pattern_vars q
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_vars ps
  | Ppat_construct (_, Some (_, q)) | Ppat_variant (_, Some q) -> pattern_vars q
  | Ppat_record (fields, _) -> List.concat_map (fun (_, q) -> pattern_vars q) fields
  | Ppat_or (a, b) -> pattern_vars a @ pattern_vars b
  | Ppat_constraint (q, _) | Ppat_lazy q | Ppat_open (_, q) | Ppat_exception q ->
    pattern_vars q
  | Ppat_any | Ppat_constant _ | Ppat_interval _ | Ppat_construct (_, None)
  | Ppat_variant (_, None) | Ppat_type _ | Ppat_unpack _ | Ppat_extension _ ->
    []

let binding_vars (vbs : Parsetree.value_binding list) =
  List.concat_map (fun (vb : Parsetree.value_binding) -> pattern_vars vb.pvb_pat) vbs
