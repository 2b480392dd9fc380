(* R1 fixture: every shape of polymorphic comparison the rule must
   catch.  This file only needs to parse — it is never typechecked. *)

let sort_prefixes ps = List.sort compare ps

let dedup ps = List.sort_uniq compare ps

let hash_prefix p = Hashtbl.hash p

let contains p ps = List.mem p ps

let same_prefix a b = Pfx.of_string a = Pfx.of_string b

let differ a b = Ipv6.Prefix.of_string a <> Ipv6.Prefix.of_string b

let check_vrp v w = v.Vrp.prefix = w.Vrp.prefix

let qualified_poly a b = Stdlib.compare (Pfx.of_string a) (Pfx.of_string b)

(* [include] binds the included module's comparators only to the end
   of the structure that includes it: the first [compare] is that
   module's, the second the polymorphic one. *)
module Included = struct
  include Pfx

  let sorted ps = List.sort compare ps
end

let after_include ps = List.sort compare ps
