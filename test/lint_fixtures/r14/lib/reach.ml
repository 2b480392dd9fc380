(* R14 fixtures. bin/main.ml calls [entry]; everything else here is
   reached only through an edge the call graph has to resolve, waived
   with a reason, or flagged. *)

module T = Target

(* reached only by the binding operator below *)
let ( let* ) = Option.bind

(* reached only inside the closure [entry] hands to the clock *)
let on_tick () = ignore (T.via_alias 1)

(* reached only as the argument of the functor application below *)
module Key = struct
  type t = int

  let compare = Int.compare
end

module Keys = Set.Make (Key)

let entry clock x =
  Netsim.Clock.at clock ~time:1 (fun () -> on_tick ());
  let* y = Some x in
  Some (T.via_alias y + Keys.cardinal Keys.empty)

(* flagged: nothing reaches it *)
let orphan x = x * 2

(* flagged: an empty reason waives nothing *)
let empty_reason x = x - 1 [@@lint.test_only ""]

(* clean: waived with its reason *)
let hook x = x + 3 [@@lint.test_only "adversarial hook: the tests' way in"]
