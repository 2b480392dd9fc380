(* Reached only as [T.via_alias], through reach.ml's renamed alias. *)
let via_alias x = x + 2
