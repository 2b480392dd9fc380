(* Deliberate R10 violations in handler position: the module name puts
   [receive]/[tick]/[connected] in the rule's named-root set. *)

(* depth-1: the raise is one call away from the handler *)
let parse_frame s = if String.length s = 0 then failwith "empty frame" else s
let receive s = parse_frame s

(* assert counts as a raise *)
let check_window n = assert (n >= 0)
let tick n = check_window n

(* known-partial stdlib call, flagged at the reference site *)
let connected xs : int = List.hd xs

(* the raise is reached only through a renamed module alias *)
module H = Helper

let disconnected () = H.explode ()
