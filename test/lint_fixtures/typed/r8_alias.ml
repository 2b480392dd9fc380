(* An R8 violation behind a renamed module alias: the [@@hot] root is
   allocation-free itself and calls its allocating helper as
   [H.boxed_pair]. *)

module H = Helper

let lookup_aliased x = H.boxed_pair x [@@hot]
