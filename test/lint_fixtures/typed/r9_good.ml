(* R9-clean: pure pipelines, task-local mutation, and waived helpers
   whose writes are provably disjoint — including a waiver in the
   middle of the chain. *)

let square x = x * x
let run items = Parallel.Pool.parallel_map ~domains:2 ~f:(fun x -> square x) items

(* local accumulation: the ref is created inside the task *)
let sum_locally items =
  Parallel.Pool.parallel_map ~domains:2
    ~f:(fun arr ->
      let acc = ref 0 in
      Array.iter (fun x -> acc := !acc + x) arr;
      !acc)
    items

let out = Array.make 8 0

(* each task writes its own index: disjoint by construction *)
let write_slot i v = out.(i) <- v [@@lint.domain_safe]

let scatter idxs = Parallel.Pool.parallel_map ~domains:2 ~f:(fun i -> write_slot i i) idxs

let counter = ref 0
let note () = incr counter

(* mid-chain waiver: [note]'s write is single-writer scratch state *)
let observe x =
  note ();
  x
[@@lint.domain_safe]

let run_observed items = Parallel.Pool.parallel_map ~domains:2 ~f:(fun x -> observe x) items
