(* Callees the call graph reaches only through a renamed module alias
   ([module H = Helper] in r8_alias.ml and router_client.ml). *)

let boxed_pair x = (x, x)
let explode () = failwith "aliased raise"
