(* compress_roas (Algorithm 1): the Figure 2 example, the semantic-
   preservation property that justifies the whole design, and the
   Strict/Paper mode divergence documented in EXPERIMENTS.md. *)

module Compress = Mlcore.Compress
module Vrp = Rpki.Vrp
module V = Rpki.Validation
module Pfx = Netaddr.Pfx

let p = Testutil.p4
let a = Testutil.a
let v s m asn = Vrp.make_exn (p s) ~max_len:m (a asn)

let check_vrps = Alcotest.(check (list Testutil.vrp))

let test_figure2 () =
  let input, output = Compress.figure2_example () in
  Alcotest.(check int) "input size" 4 (List.length input);
  check_vrps "figure 2 result"
    [ v "87.254.32.0/19" 20 31283; v "87.254.32.0/21" 21 31283 ]
    output

let test_empty_and_singleton () =
  check_vrps "empty" [] (Compress.run []);
  let single = [ v "10.0.0.0/16" 24 7 ] in
  check_vrps "singleton unchanged" single (Compress.run single)

let test_simple_sibling_merge () =
  (* parent + both children, all exact: collapses to parent-17. *)
  let input = [ v "10.0.0.0/16" 16 7; v "10.0.0.0/17" 17 7; v "10.0.128.0/17" 17 7 ] in
  check_vrps "3 -> 1" [ v "10.0.0.0/16" 17 7 ] (Compress.run input)

let test_deep_chain_collapses () =
  (* A complete chain to depth 3 collapses to a single tuple. *)
  let chain =
    [ v "10.0.0.0/16" 16 7 ]
    @ List.map (fun q -> Vrp.exact q (a 7)) (Pfx.subprefixes (p "10.0.0.0/16") 17)
    @ List.map (fun q -> Vrp.exact q (a 7)) (Pfx.subprefixes (p "10.0.0.0/16") 18)
    @ List.map (fun q -> Vrp.exact q (a 7)) (Pfx.subprefixes (p "10.0.0.0/16") 19)
  in
  Alcotest.(check int) "input 15" 15 (List.length chain);
  check_vrps "15 -> 1" [ v "10.0.0.0/16" 19 7 ] (Compress.run chain)

let test_no_merge_without_parent () =
  (* Two siblings with no stored parent: Algorithm 1 only raises an
     existing node's maxLength, so nothing changes. *)
  let input = [ v "10.0.0.0/17" 17 7; v "10.0.128.0/17" 17 7 ] in
  check_vrps "unchanged" input (Compress.run input)

let test_no_merge_single_child () =
  let input = [ v "10.0.0.0/16" 16 7; v "10.0.0.0/17" 17 7 ] in
  check_vrps "unchanged" input (Compress.run input)

let test_distinct_as_never_merge () =
  let input = [ v "10.0.0.0/16" 16 7; v "10.0.0.0/17" 17 8; v "10.0.128.0/17" 17 7 ] in
  check_vrps "different origins stay apart" input (Compress.run input)

let test_families_independent () =
  let v6 s m asn = Vrp.make_exn (Pfx.of_string_exn s) ~max_len:m (a asn) in
  let input =
    [ v "10.0.0.0/16" 16 7; v "10.0.0.0/17" 17 7; v "10.0.128.0/17" 17 7;
      v6 "2001:db8::/32" 32 7; v6 "2001:db8::/33" 33 7; v6 "2001:db8:8000::/33" 33 7 ]
  in
  check_vrps "both families compress"
    [ v "10.0.0.0/16" 17 7; v6 "2001:db8::/32" 33 7 ]
    (Compress.run input)

let test_partial_figure2_variant () =
  (* The paper's §7 warning: do NOT compress to 87.254.32.0/19-21,
     which would authorize the unannounced 87.254.40.0/21. *)
  let _, output = Compress.figure2_example () in
  let db = V.create output in
  Alcotest.check Testutil.validation_state "40.0/21 must stay invalid" V.Invalid
    (V.validate db (p "87.254.40.0/21") (a 31283))

(* Covered-tuple elimination through [run]: no merge applies to these
   inputs, so what comes out is exactly what elimination keeps. *)
let test_eliminate_covered () =
  let input =
    [ v "10.0.0.0/16" 24 7; (* dominates the next two *)
      v "10.0.0.0/18" 20 7; v "10.0.3.0/24" 24 7;
      v "10.0.0.0/18" 26 7 (* maxLength exceeds the cover: kept *) ]
  in
  check_vrps "covered dropped"
    [ v "10.0.0.0/16" 24 7; v "10.0.0.0/18" 26 7 ]
    (Compress.run input);
  (* Exact duplicates collapse too. *)
  check_vrps "duplicates" [ v "10.0.0.0/16" 16 7 ]
    (Compress.run [ v "10.0.0.0/16" 16 7; v "10.0.0.0/16" 16 7 ])

let test_idempotent () =
  let input, once = Compress.figure2_example () in
  ignore input;
  check_vrps "second run is identity" once (Compress.run once)

let test_strict_vs_paper_divergence () =
  (* Input: /16 plus two *non-adjacent-level* descendants spread across
     both halves. Paper mode treats them as direct children and raises
     the /16's maxLength to 24 — authorizing, e.g., 10.0.0.0/17, which
     no input tuple authorized. Strict mode refuses. *)
  let input = [ v "10.0.0.0/16" 16 7; v "10.0.3.0/24" 24 7; v "10.0.200.0/24" 24 7 ] in
  let strict = Compress.run ~mode:Compress.Strict input in
  check_vrps "strict: unchanged" input strict;
  let paper = Compress.run ~mode:Compress.Paper input in
  Alcotest.(check int) "paper: merged" 1 (List.length paper);
  let db_in = V.create input and db_paper = V.create paper in
  let probe = p "10.0.0.0/17" in
  Alcotest.check Testutil.validation_state "input does not authorize /17" V.Invalid
    (V.validate db_in probe (a 7));
  Alcotest.check Testutil.validation_state "paper-mode output over-authorizes /17" V.Valid
    (V.validate db_paper probe (a 7))

let test_direct_child_tie () =
  (* Paper mode's "direct child" is the nearest stored descendant:
     minimal depth, leftmost on a depth tie. The left half of the /16
     holds two stored nodes at equal depth — 10.0.0.0/18 (leftmost,
     maxLength 20) and 10.0.64.0/18 (maxLength 30) — and the right
     half holds 10.0.128.0/17 (maxLength 25). Leftmost-on-tie gives
     min(20, 25) = 20: the /16 rises to 20 and absorbs only the
     /18-20. Taking the rightmost /18 instead would give
     min(30, 25) = 25 and absorb the /17 — a different output, so
     this pins the traversal order of the BFS. *)
  let input =
    [ v "10.0.0.0/16" 16 7; v "10.0.0.0/18" 20 7; v "10.0.64.0/18" 30 7;
      v "10.0.128.0/17" 25 7 ]
  in
  check_vrps "leftmost wins the tie"
    [ v "10.0.0.0/16" 20 7; v "10.0.64.0/18" 30 7; v "10.0.128.0/17" 25 7 ]
    (Compress.run ~mode:Compress.Paper input)

let test_run_with_stats () =
  (* Figure 2: one merge absorbing one child, nothing covered. *)
  let input, _ = Compress.figure2_example () in
  let out, stats = Compress.run_with_stats input in
  Alcotest.(check int) "input" 4 stats.Compress.input;
  Alcotest.(check int) "output" 2 stats.Compress.output;
  Alcotest.(check int) "output consistent" (List.length out) stats.Compress.output;
  Alcotest.(check int) "no covered" 0 stats.Compress.covered_eliminated;
  Alcotest.(check int) "one merge" 1 stats.Compress.merges;
  Alcotest.(check int) "..absorbing two /20s" 2 stats.Compress.children_absorbed;
  (* A covered tuple shows up in the elimination counter instead. *)
  let _, stats =
    Compress.run_with_stats [ v "10.0.0.0/16" 24 7; v "10.0.0.0/20" 22 7 ]
  in
  Alcotest.(check int) "covered counted" 1 stats.Compress.covered_eliminated;
  Alcotest.(check int) "no merges" 0 stats.Compress.merges;
  (* The bookkeeping always balances. *)
  Alcotest.(check int) "balance"
    (stats.Compress.input - stats.Compress.covered_eliminated - stats.Compress.children_absorbed)
    stats.Compress.output

(* MOAS ordering: a merge raises AS 1's 10.0.0.0/16 to maxLength 17,
   past AS 2's untouched 10.0.0.0/16-16. In input order AS 1's /16
   comes first (equal maxLength, smaller ASN), so an output order that
   followed the input tuples would list AS 1 first; [Vrp.compare]
   wants AS 2's lower maxLength first. Checked in both input
   orders. *)
let test_moas_order_after_merge () =
  let input =
    [ v "10.0.0.0/16" 16 1; v "10.0.0.0/16" 16 2; v "10.0.0.0/17" 17 1; v "10.0.128.0/17" 17 1 ]
  in
  let expected = [ v "10.0.0.0/16" 16 2; v "10.0.0.0/16" 17 1 ] in
  List.iter
    (fun (name, vrps) -> check_vrps name expected (Compress.run vrps))
    [ ("canonical", input); ("reversed", List.rev input) ];
  check_vrps "record reference agrees" expected (Oracle.Compress_ref.run input)

let prop_stats_balance =
  QCheck2.Test.make ~name:"stats always balance input = output + removed" ~count:300
    Testutil.gen_vrp_list (fun vrps ->
      let _, s = Compress.run_with_stats vrps in
      s.Compress.input - s.Compress.covered_eliminated - s.Compress.children_absorbed
      = s.Compress.output)

let test_compression_ratio () =
  Alcotest.(check (float 1e-9)) "15.9%" 0.1590
    (Compress.compression_ratio ~before:10000 ~after:8410);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Compress.compression_ratio ~before:0 ~after:0)

(* --- the central property: compression is semantically lossless --- *)

let gen_routes =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 30)
    (QCheck2.Gen.pair Testutil.gen_clustered_v4_prefix Testutil.gen_small_asn)

let semantic_equal vrps vrps' routes =
  let db = V.create vrps and db' = V.create vrps' in
  List.for_all
    (fun (q, origin) ->
      (* NotFound vs Invalid can legitimately differ when compression
         removes a covering tuple that authorized nothing... it cannot:
         tuples are only merged upward, so cover can only widen. We
         therefore require exact state equality. *)
      V.validate db q origin = V.validate db' q origin)
    routes

let prop_strict_preserves_validation =
  QCheck2.Test.make ~name:"strict compression preserves RFC 6811 outcomes" ~count:500
    QCheck2.Gen.(pair Testutil.gen_vrp_list gen_routes)
    (fun (vrps, routes) ->
      let compressed = Compress.run ~mode:Compress.Strict vrps in
      semantic_equal vrps compressed routes)

let prop_strict_preserves_authorized_subprefixes =
  (* Stronger probe: every subprefix (down to +3 bits) of every input
     tuple keeps its exact authorization status. *)
  QCheck2.Test.make ~name:"strict compression preserves the authorized cone" ~count:200
    Testutil.gen_vrp_list (fun vrps ->
      let compressed = Compress.run vrps in
      let db = V.create vrps and db' = V.create compressed in
      List.for_all
        (fun (x : Vrp.t) ->
          let deep = min (Pfx.length x.Vrp.prefix + 3) (Pfx.addr_bits x.Vrp.prefix) in
          List.for_all
            (fun q -> V.validate db q x.Vrp.asn = V.validate db' q x.Vrp.asn)
            (List.concat_map (Pfx.subprefixes x.Vrp.prefix)
               (List.init (deep - Pfx.length x.Vrp.prefix + 1) (fun i -> Pfx.length x.Vrp.prefix + i))))
        vrps)

let prop_never_grows =
  QCheck2.Test.make ~name:"compression never increases the tuple count" ~count:500
    Testutil.gen_vrp_list (fun vrps ->
      let distinct = List.length (List.sort_uniq Vrp.compare vrps) in
      List.length (Compress.run vrps) <= distinct)

let prop_idempotent =
  QCheck2.Test.make ~name:"compression is idempotent" ~count:300 Testutil.gen_vrp_list
    (fun vrps ->
      let once = Compress.run vrps in
      List.equal Vrp.equal once (Compress.run once))

let prop_reaches_bound_on_full_tree =
  (* A maximally-permissive single tuple is already optimal; feeding
     its full expansion back must recover exactly one tuple. *)
  QCheck2.Test.make ~name:"full trees collapse to one tuple" ~count:50
    QCheck2.Gen.(pair (int_range 0 2) (int_range 0 7))
    (fun (depth, block) ->
      let base = Pfx.of_string_exn (Printf.sprintf "%d.0.0.0/14" (10 + block)) in
      let tuples =
        List.concat_map
          (fun d ->
            List.map (fun q -> Vrp.exact q (a 7)) (Pfx.subprefixes base (Pfx.length base + d)))
          (List.init (depth + 1) Fun.id)
      in
      List.length (Compress.run tuples) = 1)

(* Independent reference implementation of the Strict merge, written
   over plain association lists with no trie: repeatedly find any
   stored parent whose two halves are both stored and merge per
   Algorithm 1, until no rule applies. Differential oracle for the
   trie-based implementation. *)
let reference_compress vrps =
  let vrps = Oracle.Compress_ref.eliminate_covered vrps in
  let module M = Map.Make (struct
    type t = Rpki.Asnum.t * Pfx.t

    let compare (a1, p1) (a2, p2) =
      let c = Rpki.Asnum.compare a1 a2 in
      if c <> 0 then c else Pfx.compare p1 p2
  end) in
  let state =
    ref
      (List.fold_left
         (fun m (x : Vrp.t) ->
           M.update (x.Vrp.asn, x.Vrp.prefix)
             (function Some v -> Some (max v x.Vrp.max_len) | None -> Some x.Vrp.max_len)
             m)
         M.empty vrps)
  in
  (* Bottom-up, exactly like the DFS backtrack: parents at length
     [len] try to absorb their two halves at [len + 1], deepest levels
     first. *)
  for len = 127 downto 0 do
    M.iter
      (fun (asn, q) v ->
        if Pfx.length q = len then
          match Pfx.split q with
          | None -> ()
          | Some (l, r) ->
            (match M.find_opt (asn, l) !state, M.find_opt (asn, r) !state with
             | Some vl, Some vr when min vl vr > v ->
               let v' = min vl vr in
               state := M.add (asn, q) v' !state;
               if vl <= v' then state := M.remove (asn, l) !state;
               if vr <= v' then state := M.remove (asn, r) !state
             | _ -> ()))
      !state
  done;
  M.fold (fun (asn, q) v acc -> Vrp.make_exn q ~max_len:v asn :: acc) !state []
  |> List.sort_uniq Vrp.compare

let prop_differential_reference =
  QCheck2.Test.make ~name:"trie implementation equals list-based reference" ~count:300
    Testutil.gen_vrp_list (fun vrps ->
      List.equal Vrp.equal (Compress.run ~mode:Compress.Strict vrps) (reference_compress vrps))

(* Second oracle: the original bit-per-node compression trie (one node
   per address bit, BFS direct_child, path-reconstructing collect),
   kept verbatim as a reference after the production code moved to a
   path-compressed layout. The swap must be invisible: outputs stay
   bit-identical in both modes. *)
module Bit_ref = struct
  type node = {
    mutable value : int option;
    mutable left : node option;
    mutable right : node option;
  }

  let new_node () = { value = None; left = None; right = None }

  let insert root q max_len =
    let len = Pfx.length q in
    let rec go n i =
      if i = len then
        n.value <- Some (match n.value with Some m -> max m max_len | None -> max_len)
      else begin
        let child =
          if Pfx.bit q i then (
            match n.right with
            | Some c -> c
            | None ->
              let c = new_node () in
              n.right <- Some c;
              c)
          else
            match n.left with
            | Some c -> c
            | None ->
              let c = new_node () in
              n.left <- Some c;
              c
        in
        go child (i + 1)
      end
    in
    go root 0

  let direct_child = function
    | None -> None
    | Some c ->
      let q = Queue.create () in
      Queue.add c q;
      let rec go () =
        match Queue.take_opt q with
        | None -> None
        | Some n ->
          if n.value <> None then Some n
          else begin
            (match n.left with Some x -> Queue.add x q | None -> ());
            (match n.right with Some x -> Queue.add x q | None -> ());
            go ()
          end
      in
      go ()

  let merge_at mode n =
    match n.value with
    | None -> ()
    | Some parent_value ->
      let children =
        match mode with
        | Compress.Strict ->
          (match n.left, n.right with
           | Some l, Some r when l.value <> None && r.value <> None -> Some (l, r)
           | _ -> None)
        | Compress.Paper ->
          (match direct_child n.left, direct_child n.right with
           | Some l, Some r -> Some (l, r)
           | _ -> None)
      in
      (match children with
       | None -> ()
       | Some (l, r) ->
         let lv = Option.get l.value and rv = Option.get r.value in
         let min_child = min lv rv in
         if min_child > parent_value then begin
           n.value <- Some min_child;
           if lv <= min_child then l.value <- None;
           if rv <= min_child then r.value <- None
         end)

  let rec dfs mode n =
    (match n.left with Some c -> dfs mode c | None -> ());
    (match n.right with Some c -> dfs mode c | None -> ());
    merge_at mode n

  let collect afi asn root =
    let zero =
      match afi with
      | Pfx.Afi_v4 -> Pfx.of_string_exn "0.0.0.0/0"
      | Pfx.Afi_v6 -> Pfx.of_string_exn "::/0"
    in
    let out = ref [] in
    let rec go n q =
      (match n.value with
       | Some m -> out := Vrp.make_exn q ~max_len:m asn :: !out
       | None -> ());
      match Pfx.split q with
      | None -> ()
      | Some (ql, qr) ->
        (match n.left with Some c -> go c ql | None -> ());
        (match n.right with Some c -> go c qr | None -> ())
    in
    go root zero;
    !out

  (* Per-(origin, family) trie runs, unioned; [run] sorts its output,
     so grouping order is immaterial. *)
  let run ~mode vrps =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (x : Vrp.t) ->
        let key = (x.Vrp.asn, Pfx.afi x.Vrp.prefix) in
        Hashtbl.replace tbl key
          (x :: (match Hashtbl.find_opt tbl key with Some l -> l | None -> [])))
      (List.sort_uniq Vrp.compare vrps);
    Hashtbl.fold
      (fun (asn, afi) group acc ->
        let root = new_node () in
        List.iter (fun (x : Vrp.t) -> insert root x.Vrp.prefix x.Vrp.max_len) group;
        dfs mode root;
        List.rev_append (collect afi asn root) acc)
      tbl []
    |> List.sort_uniq Vrp.compare
end

let prop_bit_trie_reference =
  QCheck2.Test.make
    ~name:"patricia trie equals bit-per-node reference (both modes)" ~count:150
    Testutil.gen_vrp_list (fun vrps ->
      List.for_all
        (fun mode ->
          (* elimination is per-group, so pre-eliminating for the
             reference matches what the kernel does to each group *)
          List.equal Vrp.equal (Compress.run ~mode vrps)
            (Bit_ref.run ~mode (Oracle.Compress_ref.eliminate_covered vrps)))
        [ Compress.Strict; Compress.Paper ])

let prop_paper_mode_never_shrinks_coverage =
  (* Paper mode may over-authorize but must never lose an authorization:
     anything valid before stays valid. *)
  QCheck2.Test.make ~name:"paper mode only widens the authorized set" ~count:300
    QCheck2.Gen.(pair Testutil.gen_vrp_list gen_routes)
    (fun (vrps, routes) ->
      let compressed = Compress.run ~mode:Compress.Paper vrps in
      let db = V.create vrps and db' = V.create compressed in
      List.for_all
        (fun (q, origin) ->
          V.validate db q origin <> V.Valid || V.validate db' q origin = V.Valid)
        routes)

let () =
  Alcotest.run "mlcore.compress"
    [ ( "examples",
        [ Alcotest.test_case "figure 2" `Quick test_figure2;
          Alcotest.test_case "empty/singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "sibling merge" `Quick test_simple_sibling_merge;
          Alcotest.test_case "deep chain" `Quick test_deep_chain_collapses;
          Alcotest.test_case "no parentless merge" `Quick test_no_merge_without_parent;
          Alcotest.test_case "no single-child merge" `Quick test_no_merge_single_child;
          Alcotest.test_case "per-AS isolation" `Quick test_distinct_as_never_merge;
          Alcotest.test_case "per-family isolation" `Quick test_families_independent;
          Alcotest.test_case "paper's non-minimal warning" `Quick test_partial_figure2_variant;
          Alcotest.test_case "eliminate_covered" `Quick test_eliminate_covered;
          Alcotest.test_case "idempotent on figure 2" `Quick test_idempotent;
          Alcotest.test_case "strict vs paper divergence" `Quick test_strict_vs_paper_divergence;
          Alcotest.test_case "direct-child minimal-depth/leftmost tie" `Quick test_direct_child_tie;
          Alcotest.test_case "compression ratio" `Quick test_compression_ratio;
          Alcotest.test_case "run_with_stats" `Quick test_run_with_stats;
          Alcotest.test_case "MOAS order after a merge" `Quick test_moas_order_after_merge ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_strict_preserves_validation;
            prop_strict_preserves_authorized_subprefixes;
            prop_never_grows;
            prop_idempotent;
            prop_reaches_bound_on_full_tree;
            prop_differential_reference;
            prop_bit_trie_reference;
            prop_stats_balance;
            prop_paper_mode_never_shrinks_coverage ] ) ]
