(* Clock-callback roots for R10: closures handed to the netsim event
   queue become synthetic call-graph nodes. One escapes a raise, one
   guards it. *)

let boom () = failwith "timer misfired"
let arm clock = Netsim.Clock.at clock ~time:10 (fun () -> boom ())
let arm_safe clock = Netsim.Clock.at clock ~time:10 (fun () -> try boom () with _ -> ())
