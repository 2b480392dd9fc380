(* Deliberate R9 violations: pool tasks reaching shared-state mutation
   through call chains R3 (which only sees the closure body) cannot. *)

let hits = ref 0
let log : (string, int) Hashtbl.t = Hashtbl.create 16

(* depth-1 helper: mutates module state *)
let tally x =
  incr hits;
  x + 1

let record k v = Hashtbl.replace log k v

(* depth-2: the mutation is two calls away from the closure *)
let deep k v = record k v

let run items = Parallel.Pool.parallel_map ~domains:2 ~f:(fun x -> tally x) items
let run_tasks k = Parallel.Pool.parallel_tasks ~domains:2 [ (fun () -> deep k 1) ]
