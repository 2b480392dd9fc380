(* The per-call fork-join (lib/parallel): result ordering at any domain
   count, exception propagation, safe nesting, the sequential path.
   These are the invariants the parallel analysis/table1/timeline
   paths lean on for bit-identical output. *)

module Pool = Parallel.Pool

let test_map_ordering () =
  let input = Array.init 1000 Fun.id in
  let expected = Array.map (fun x -> x * x) input in
  List.iter
    (fun d ->
      let got = Pool.parallel_map ~domains:d ~f:(fun x -> x * x) input in
      Alcotest.(check (array int)) (Printf.sprintf "%d domains" d) expected got)
    [ 1; 2; 4; 8 ]

let test_more_domains_than_items () =
  List.iter
    (fun n ->
      let input = Array.init n Fun.id in
      List.iter
        (fun d ->
          Alcotest.(check (array int))
            (Printf.sprintf "%d items, %d domains" n d)
            (Array.map succ input)
            (Pool.parallel_map ~domains:d ~f:succ input))
        [ 0; 1; 2; 4; 8 ])
    [ 1; 2; 3; 5 ]

let test_empty_input () =
  Alcotest.(check (array int)) "empty map" [||]
    (Pool.parallel_map ~domains:4 ~f:(fun _ -> Alcotest.fail "must not run") [||]);
  Alcotest.(check (list int)) "no tasks" [] (Pool.parallel_tasks ~domains:4 [])

let test_tasks_ordered () =
  List.iter
    (fun d ->
      Alcotest.(check (list string))
        (Printf.sprintf "results in input order (%d domains)" d)
        [ "a"; "b"; "c" ]
        (Pool.parallel_tasks ~domains:d [ (fun () -> "a"); (fun () -> "b"); (fun () -> "c") ]))
    [ 1; 3 ]

exception Boom of int

(* Items 1, 251, 501 and 751 fail. Whatever the scheduling, the
   lowest-indexed failure is the one raised — the same exception the
   sequential map raises — and on the parallel path it is raised only
   once every other item has run. *)
let test_exception_propagation () =
  let n = 1000 in
  List.iter
    (fun d ->
      let ran = Atomic.make 0 in
      (match
         Pool.parallel_map ~domains:d
           ~f:(fun x ->
             if x mod 250 = 1 then raise (Boom x);
             Atomic.incr ran;
             x)
           (Array.init n Fun.id)
       with
       | _ -> Alcotest.fail "expected Boom to propagate"
       | exception Boom x ->
         Alcotest.(check int) (Printf.sprintf "lowest failure (%d domains)" d) 1 x);
      if d > 1 then
        Alcotest.(check int)
          (Printf.sprintf "every other item ran (%d domains)" d)
          (n - 4) (Atomic.get ran))
    [ 1; 2; 4; 8 ]

let test_pool_survives_failure () =
  (try ignore (Pool.parallel_map ~domains:4 ~f:(fun _ -> raise Exit) [| 0; 1; 2 |])
   with Exit -> ());
  let got = Pool.parallel_map ~domains:4 ~f:(fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "next call runs normally" [| 2; 3; 4 |] got

let test_nested_use_safe () =
  let inner i =
    Array.fold_left ( + ) 0 (Pool.parallel_map ~domains:2 ~f:(( * ) i) (Array.init 10 Fun.id))
  in
  Alcotest.(check (array int)) "nested maps" (Array.init 4 (fun i -> 45 * i))
    (Pool.parallel_map ~domains:2 ~f:inner (Array.init 4 Fun.id))

let test_domain_count_clamped () =
  let input = Array.init 16 Fun.id in
  List.iter
    (fun d ->
      Alcotest.(check (array int)) (Printf.sprintf "%d domains" d) (Array.map succ input)
        (Pool.parallel_map ~domains:d ~f:succ input))
    [ -5; 0; 1000 ]

let () =
  Alcotest.run "parallel.pool"
    [ ( "pool",
        [ Alcotest.test_case "map ordering (1/2/4/8 domains)" `Quick test_map_ordering;
          Alcotest.test_case "more domains than items" `Quick test_more_domains_than_items;
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "heterogeneous tasks ordered" `Quick test_tasks_ordered;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "pool survives a failed job" `Quick test_pool_survives_failure;
          Alcotest.test_case "nested use is safe" `Quick test_nested_use_safe;
          Alcotest.test_case "domain count clamped" `Quick test_domain_count_clamped ] ) ]
