(* R14's production root: a renamed alias of the fixture library. *)
module R = Lint_r14_fixtures.Reach

let () = ignore (R.entry (Netsim.Clock.create ()) 1)
