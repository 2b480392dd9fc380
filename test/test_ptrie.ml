module Pfx = Netaddr.Pfx
module Ptrie = Oracle.Ptrie

let p = Testutil.p4

let make l =
  let t = Ptrie.create Pfx.Afi_v4 in
  List.iter (fun (s, v) -> Ptrie.add t (p s) v) l;
  t

let test_add_find () =
  let t = make [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2); ("10.1.0.0/16", 3) ] in
  Alcotest.(check int) "cardinal" 3 (Ptrie.cardinal t);
  Alcotest.(check (option int)) "find /8" (Some 1) (Ptrie.find t (p "10.0.0.0/8"));
  Alcotest.(check (option int)) "find /16" (Some 2) (Ptrie.find t (p "10.0.0.0/16"));
  Alcotest.(check (option int)) "absent" None (Ptrie.find t (p "10.2.0.0/16"));
  Alcotest.(check (option int)) "absent deeper" None (Ptrie.find t (p "10.0.0.0/24"));
  Ptrie.add t (p "10.0.0.0/8") 9;
  Alcotest.(check (option int)) "replace" (Some 9) (Ptrie.find t (p "10.0.0.0/8"));
  Alcotest.(check int) "cardinal after replace" 3 (Ptrie.cardinal t)

let test_family_mismatch () =
  let t = make [] in
  match Ptrie.add t (Pfx.of_string_exn "2001:db8::/32") 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accepted v6 prefix in v4 trie"

let test_remove_prunes () =
  let t = make [ ("10.0.0.0/24", 1) ] in
  Ptrie.remove t (p "10.0.0.0/24");
  Alcotest.(check int) "empty" 0 (Ptrie.cardinal t);
  Alcotest.(check bool) "is_empty" true (Ptrie.is_empty t);
  (* Removing a missing prefix is a no-op. *)
  Ptrie.remove t (p "10.0.0.0/24");
  Alcotest.(check int) "still empty" 0 (Ptrie.cardinal t)

let test_remove_keeps_descendants () =
  let t = make [ ("10.0.0.0/8", 1); ("10.0.0.0/24", 2) ] in
  Ptrie.remove t (p "10.0.0.0/8");
  Alcotest.(check (option int)) "descendant survives" (Some 2) (Ptrie.find t (p "10.0.0.0/24"));
  Alcotest.(check int) "cardinal" 1 (Ptrie.cardinal t)

let test_longest_match () =
  let t = make [ ("0.0.0.0/0", 0); ("10.0.0.0/8", 1); ("10.0.0.0/16", 2) ] in
  let lm q = Option.map (fun (q, v) -> (Pfx.to_string q, v)) (Ptrie.longest_match t (p q)) in
  Alcotest.(check (option (pair string int))) "exact deepest" (Some ("10.0.0.0/16", 2)) (lm "10.0.0.0/16");
  Alcotest.(check (option (pair string int))) "host under /16" (Some ("10.0.0.0/16", 2)) (lm "10.0.255.1/32");
  Alcotest.(check (option (pair string int))) "host under /8 only" (Some ("10.0.0.0/8", 1)) (lm "10.1.0.1/32");
  Alcotest.(check (option (pair string int))) "default" (Some ("0.0.0.0/0", 0)) (lm "192.168.0.1/32")

let test_covering_covered () =
  let t = make [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2); ("10.0.0.0/24", 3); ("10.1.0.0/16", 4) ] in
  let cov = Ptrie.covering t (p "10.0.0.0/24") in
  Alcotest.(check (list string))
    "covering shortest-first"
    [ "10.0.0.0/8"; "10.0.0.0/16"; "10.0.0.0/24" ]
    (List.map (fun (q, _) -> Pfx.to_string q) cov);
  let cvd = Ptrie.covered_by t (p "10.0.0.0/16") in
  Alcotest.(check (list string))
    "covered_by" [ "10.0.0.0/16"; "10.0.0.0/24" ]
    (List.map (fun (q, _) -> Pfx.to_string q) cvd);
  Alcotest.(check bool) "has_descendant /8" true (Ptrie.has_descendant t (p "10.0.0.0/8"));
  Alcotest.(check bool) "no descendant of /24" false (Ptrie.has_descendant t (p "10.0.0.0/24"));
  Alcotest.(check bool) "descendants under unstored node" true
    (Ptrie.has_descendant t (p "10.0.0.0/12"))

let test_update () =
  let t = make [] in
  Ptrie.update t (p "10.0.0.0/8") (function None -> Some 1 | Some _ -> Alcotest.fail "fresh");
  Ptrie.update t (p "10.0.0.0/8") (function Some 1 -> Some 2 | _ -> Alcotest.fail "update");
  Alcotest.(check (option int)) "updated" (Some 2) (Ptrie.find t (p "10.0.0.0/8"));
  Ptrie.update t (p "10.0.0.0/8") (fun _ -> None);
  Alcotest.(check int) "removed via update" 0 (Ptrie.cardinal t)

let test_traversal_order () =
  let t = make [ ("10.0.0.0/16", 2); ("10.0.0.0/8", 1); ("9.0.0.0/8", 0); ("10.128.0.0/9", 3) ] in
  Alcotest.(check (list string))
    "in-order"
    [ "9.0.0.0/8"; "10.0.0.0/8"; "10.0.0.0/16"; "10.128.0.0/9" ]
    (List.map (fun (q, _) -> Pfx.to_string q) (Ptrie.to_list t))

(* Model-based property: the trie agrees with a Map-based reference
   under a random sequence of adds and removes. *)
let prop_model =
  let open QCheck2 in
  let gen_ops =
    Gen.list_size (Gen.int_range 1 200)
      (Gen.pair Gen.bool Testutil.gen_clustered_v4_prefix)
  in
  Test.make ~name:"trie agrees with Map model" ~count:200 gen_ops (fun ops ->
      let t = Ptrie.create Pfx.Afi_v4 in
      let model = ref Pfx.Map.empty in
      List.iteri
        (fun i (add, q) ->
          if add then begin
            Ptrie.add t q i;
            model := Pfx.Map.add q i !model
          end
          else begin
            Ptrie.remove t q;
            model := Pfx.Map.remove q !model
          end)
        ops;
      Ptrie.cardinal t = Pfx.Map.cardinal !model
      && Pfx.Map.for_all
           (fun q v -> Option.equal Int.equal (Ptrie.find t q) (Some v))
           !model)

let prop_longest_match_naive =
  let open QCheck2 in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 1 60) Testutil.gen_clustered_v4_prefix)
      Testutil.gen_clustered_v4_prefix
  in
  Test.make ~name:"longest_match equals naive scan" ~count:300 gen (fun (stored, q) ->
      let t = Ptrie.create Pfx.Afi_v4 in
      List.iteri (fun i s -> Ptrie.add t s i) stored;
      let naive =
        Ptrie.to_list t
        |> List.filter (fun (s, _) -> Pfx.subset q s)
        |> List.fold_left
             (fun acc (s, v) ->
               match acc with
               | Some (best, _) when Pfx.length best >= Pfx.length s -> acc
               | _ -> Some (s, v))
             None
      in
      match Ptrie.longest_match t q, naive with
      | None, None -> true
      | Some (a, _), Some (b, _) -> Pfx.equal a b
      | Some _, None | None, Some _ -> false)

let prop_covering_naive =
  let open QCheck2 in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 1 60) Testutil.gen_clustered_v4_prefix)
      Testutil.gen_clustered_v4_prefix
  in
  Test.make ~name:"covering equals naive filter" ~count:300 gen (fun (stored, q) ->
      let t = Ptrie.create Pfx.Afi_v4 in
      List.iter (fun s -> Ptrie.add t s 0) stored;
      let got = List.map fst (Ptrie.covering t q) in
      let expected =
        List.map fst (Ptrie.to_list t) |> List.filter (fun s -> Pfx.subset q s)
      in
      List.equal Pfx.equal got expected)

(* --- randomized differential suite: trie vs naive model ---

   Drives every mutating operation against a [Pfx.Map]-based model and
   cross-checks every query — find, longest_match, covering (list,
   iter, exists), covered_by (list, iter, fold), has_descendant and
   to_list order — on both address families, with prefixes spanning /0
   to full length. The op count (2 families x 6_000) is the
   regression floor for the path-compressed rewrite. *)

(* The trie's traversal order: lexicographic on address bits with a
   covering prefix before everything it covers. *)
let bit_order q r =
  if Pfx.equal q r then 0
  else
    let k = Pfx.common_length q r in
    if k = Pfx.length q then -1
    else if k = Pfx.length r then 1
    else if Pfx.bit r k then -1
    else 1

let random_pfx family rng =
  match family with
  | Pfx.Afi_v4 ->
    let len =
      match Random.State.int rng 10 with
      | 0 -> 0
      | 1 -> 32
      | _ -> Random.State.int rng 33
    in
    let s =
      Printf.sprintf "%d.%d.%d.%d/32"
        (10 + Random.State.int rng 2)
        (Random.State.int rng 4) (Random.State.int rng 4) (Random.State.int rng 256)
    in
    Pfx.truncate (Pfx.of_string_exn s) len
  | Pfx.Afi_v6 ->
    let len =
      match Random.State.int rng 10 with
      | 0 -> 0
      | 1 -> 128
      | _ -> Random.State.int rng 129
    in
    let s =
      Printf.sprintf "2001:db8:%x:%x::%x/128" (Random.State.int rng 4) (Random.State.int rng 4)
        (Random.State.int rng 0x10000)
    in
    Pfx.truncate (Pfx.of_string_exn s) len

let check_pair_lists what i expected got =
  if
    not
      (List.equal (fun (q, v) (r, w) -> Pfx.equal q r && v = w) expected got)
  then
    Alcotest.failf "%s mismatch at op %d: expected [%s] got [%s]" what i
      (String.concat "; " (List.map (fun (q, _) -> Pfx.to_string q) expected))
      (String.concat "; " (List.map (fun (q, _) -> Pfx.to_string q) got))

let check_queries t model probe i =
  let bindings = Pfx.Map.bindings model in
  (* covering: shortest first (two covering prefixes of one probe
     never share a length, so the order is total) *)
  let exp_cov =
    List.filter (fun (s, _) -> Pfx.subset probe s) bindings
    |> List.sort (fun (q, _) (r, _) -> Int.compare (Pfx.length q) (Pfx.length r))
  in
  check_pair_lists "covering" i exp_cov (Ptrie.covering t probe);
  let acc = ref [] in
  Ptrie.iter_covering t probe (fun q v -> acc := (q, v) :: !acc);
  check_pair_lists "iter_covering" i exp_cov (List.rev !acc);
  let pred _ v = v land 1 = 0 in
  if
    not
      (Bool.equal
         (Ptrie.exists_covering t probe pred)
         (List.exists (fun (q, v) -> pred q v) exp_cov))
  then Alcotest.failf "exists_covering mismatch at op %d" i;
  (* longest_match = last covering entry *)
  let exp_lm = match List.rev exp_cov with [] -> None | x :: _ -> Some x in
  (match Ptrie.longest_match t probe, exp_lm with
   | None, None -> ()
   | Some (q, v), Some (r, w) when Pfx.equal q r && v = w -> ()
   | _ -> Alcotest.failf "longest_match mismatch at op %d" i);
  (* covered_by: the trie's in-order *)
  let exp_cvd =
    List.filter (fun (s, _) -> Pfx.subset s probe) bindings
    |> List.sort (fun (q, _) (r, _) -> bit_order q r)
  in
  check_pair_lists "covered_by" i exp_cvd (Ptrie.covered_by t probe);
  let acc = ref [] in
  Ptrie.iter_covered_by t probe (fun q v -> acc := (q, v) :: !acc);
  check_pair_lists "iter_covered_by" i exp_cvd (List.rev !acc);
  check_pair_lists "fold_covered_by" i exp_cvd
    (List.rev (Ptrie.fold_covered_by t probe ~init:[] ~f:(fun acc q v -> (q, v) :: acc)));
  let exp_desc =
    List.exists (fun (s, _) -> Pfx.subset s probe && not (Pfx.equal s probe)) bindings
  in
  if not (Bool.equal (Ptrie.has_descendant t probe) exp_desc) then
    Alcotest.failf "has_descendant mismatch at op %d" i

let run_differential family n_ops seed =
  let rng = Random.State.make [| seed |] in
  let t = Ptrie.create family in
  let model = ref Pfx.Map.empty in
  for i = 1 to n_ops do
    let q = random_pfx family rng in
    (match Random.State.int rng 6 with
     | 0 | 1 ->
       Ptrie.add t q i;
       model := Pfx.Map.add q i !model
     | 2 ->
       Ptrie.remove t q;
       model := Pfx.Map.remove q !model
     | 3 ->
       (* insert-or-bump through the single-descent update *)
       let f = function None -> Some i | Some v -> Some (v + 1) in
       Ptrie.update t q f;
       model := Pfx.Map.update q f !model
     | 4 ->
       Ptrie.update t q (fun _ -> None);
       model := Pfx.Map.remove q !model
     | _ -> Ptrie.update t q (fun v -> v) (* identity rebind *));
    if Ptrie.cardinal t <> Pfx.Map.cardinal !model then
      Alcotest.failf "cardinal mismatch at op %d" i;
    if not (Option.equal Int.equal (Ptrie.find t q) (Pfx.Map.find_opt q !model)) then
      Alcotest.failf "find mismatch at op %d (%s)" i (Pfx.to_string q);
    if i mod 17 = 0 then begin
      let probe = if Random.State.bool rng then q else random_pfx family rng in
      check_queries t !model probe i
    end
  done;
  check_pair_lists "final to_list" n_ops
    (Pfx.Map.bindings !model |> List.sort (fun (q, _) (r, _) -> bit_order q r))
    (Ptrie.to_list t)

let test_differential_v4 () = run_differential Pfx.Afi_v4 6_000 0xbeef
let test_differential_v6 () = run_differential Pfx.Afi_v6 6_000 0xcafe

let () =
  Alcotest.run "ptrie"
    [ ( "operations",
        [ Alcotest.test_case "add/find" `Quick test_add_find;
          Alcotest.test_case "family mismatch" `Quick test_family_mismatch;
          Alcotest.test_case "remove prunes" `Quick test_remove_prunes;
          Alcotest.test_case "remove keeps descendants" `Quick test_remove_keeps_descendants;
          Alcotest.test_case "longest match" `Quick test_longest_match;
          Alcotest.test_case "covering/covered_by" `Quick test_covering_covered;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "traversal order" `Quick test_traversal_order ] );
      ( "differential",
        [ Alcotest.test_case "6000-op model check, IPv4" `Quick test_differential_v4;
          Alcotest.test_case "6000-op model check, IPv6" `Quick test_differential_v6 ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_model; prop_longest_match_naive; prop_covering_naive ] ) ]
