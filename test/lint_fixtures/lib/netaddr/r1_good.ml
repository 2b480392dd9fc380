(* R1 fixture: patterns that must NOT be flagged — module-specific
   comparators, scoped shadowing, scalar projections, and the
   [@lint.poly_ok] escape hatch. *)

let sort_prefixes ps = List.sort Pfx.compare ps

let contains p ps = List.exists (Pfx.equal p) ps

(* A locally bound [compare] shadows the polymorphic one; using it is
   fine and the linter must track the scope. *)
let with_local_comparator ps =
  let compare a b = Pfx.compare a b in
  List.sort compare ps

(* Comparing scalar projections of abstract values is fine. *)
let same_length a b = Pfx.length a = Pfx.length b

(* Explicitly blessed polymorphic use. *)
let blessed p = (Hashtbl.hash [@lint.poly_ok]) p

module Ord = struct
  type t = int

  (* Aliasing inside a comparator submodule is the idiomatic pattern
     and relies on scope tracking to stay clean. *)
  let compare (a : t) b = Int.compare a b
  let sorted l = List.sort compare l
end

(* [include] of a module path brings its comparators, as a local
   [let compare] would. *)
module Serial = struct
  include Rtr.Serial

  let lt a b = compare a b < 0
end
