(* Differential suite for the flat-arena data plane: every arena
   structure must agree bit-for-bit with its record-backed oracle in
   test/oracle under randomized workloads — Itrie vs Ptrie, Validation
   vs Validation_ref, Bgp_table vs Bgp_table_ref, the compress pipeline
   vs Compress_ref — plus the handle-reuse safety property (freed trie
   slots may be recycled, but never so that a surviving handle changes
   meaning). *)

module Pfx = Netaddr.Pfx
module Itrie = Arena.Itrie
module Vrp = Rpki.Vrp
module Ptrie = Oracle.Ptrie
module Validation_ref = Oracle.Validation_ref
module Bgp_table_ref = Oracle.Bgp_table_ref
module Compress_ref = Oracle.Compress_ref

let p = Testutil.p4
let a = Testutil.a

(* --- Itrie vs Ptrie: unit coverage ------------------------------------ *)

let make_itrie l =
  let t = Itrie.create Pfx.Afi_v4 in
  List.iter
    (fun (s, v) ->
      let n = Itrie.probe t (p s) in
      Itrie.set_value t n v)
    l;
  t

let itrie_to_list t =
  List.rev
    (Itrie.fold_bound t ~init:[] ~f:(fun acc n ->
         (Itrie.prefix_at t n, Itrie.value t n) :: acc))

let test_itrie_basics () =
  let t = make_itrie [ ("10.0.0.0/8", 1); ("10.0.0.0/16", 2); ("10.1.0.0/16", 3) ] in
  Alcotest.(check int) "cardinal" 3 (Itrie.cardinal t);
  let find s =
    let n = Itrie.find t (p s) in
    if n < 0 then None else if Itrie.value t n < 0 then None else Some (Itrie.value t n)
  in
  Alcotest.(check (option int)) "find /8" (Some 1) (find "10.0.0.0/8");
  Alcotest.(check (option int)) "find /16" (Some 2) (find "10.0.0.0/16");
  Alcotest.(check (option int)) "absent" None (find "10.2.0.0/16");
  Alcotest.(check bool) "remove" true (Itrie.remove t (p "10.0.0.0/16"));
  Alcotest.(check bool) "remove again" false (Itrie.remove t (p "10.0.0.0/16"));
  Alcotest.(check int) "cardinal after remove" 2 (Itrie.cardinal t);
  Alcotest.(check (option int)) "descendant survives" (Some 3) (find "10.1.0.0/16");
  (match Itrie.self_check t with
   | Ok () -> ()
   | Error e -> Alcotest.failf "self_check: %s" e)

let test_itrie_order_matches_ptrie () =
  let entries =
    [ ("10.0.0.0/16", 2); ("10.0.0.0/8", 1); ("9.0.0.0/8", 0); ("10.128.0.0/9", 3) ]
  in
  let t = make_itrie entries in
  let m = Ptrie.create Pfx.Afi_v4 in
  List.iter (fun (s, v) -> Ptrie.add m (p s) v) entries;
  Alcotest.(check (list (pair Testutil.prefix int)))
    "fold_bound order is Ptrie order" (Ptrie.to_list m) (itrie_to_list t)

(* --- Itrie vs Ptrie: randomized model --------------------------------- *)

let prop_itrie_model family prefix_gen name =
  let open QCheck2 in
  let gen_ops = Gen.list_size (Gen.int_range 1 200) (Gen.pair Gen.bool prefix_gen) in
  Test.make ~name ~count:200 gen_ops (fun ops ->
      let t = Itrie.create family in
      let m = Ptrie.create family in
      List.iteri
        (fun i (add, q) ->
          if add then begin
            let n = Itrie.probe t q in
            Itrie.set_value t n i;
            Ptrie.add m q i
          end
          else begin
            let expected = Option.is_some (Ptrie.find m q) in
            Ptrie.remove m q;
            if Itrie.remove t q <> expected then
              Test.fail_reportf "remove %s disagreed with the model" (Pfx.to_string q)
          end)
        ops;
      (match Itrie.self_check t with
       | Ok () -> ()
       | Error e -> Test.fail_reportf "self_check: %s" e);
      Itrie.cardinal t = Ptrie.cardinal m
      && List.equal
           (fun (p1, v1) (p2, v2) -> Pfx.equal p1 p2 && Int.equal v1 v2)
           (Ptrie.to_list m) (itrie_to_list t))

(* Freed slots may be recycled by later insertions, but a handle that
   was never removed must keep resolving to its original prefix and
   value — reuse must not alias live nodes. *)
let prop_handle_reuse =
  let open QCheck2 in
  let gen =
    Gen.triple
      (Gen.list_size (Gen.int_range 1 80) Testutil.gen_clustered_v4_prefix)
      (Gen.list_size (Gen.int_range 1 80) Testutil.gen_clustered_v4_prefix)
      (Gen.list_size (Gen.int_range 1 80) Testutil.gen_clustered_v4_prefix)
  in
  Test.make ~name:"handle reuse never aliases live nodes" ~count:200 gen
    (fun (adds, removes, readds) ->
      let t = Itrie.create Pfx.Afi_v4 in
      let distinct = List.sort_uniq Pfx.compare adds in
      let handles =
        List.mapi
          (fun i q ->
            let n = Itrie.probe t q in
            Itrie.set_value t n i;
            (q, n, i))
          distinct
      in
      List.iter (fun q -> ignore (Itrie.remove t q)) removes;
      let removed q = List.exists (Pfx.equal q) removes in
      let survivors = List.filter (fun (q, _, _) -> not (removed q)) handles in
      let check_survivors () =
        List.for_all
          (fun (q, n, v) -> Pfx.equal (Itrie.prefix_at t n) q && Itrie.value t n = v)
          survivors
      in
      let ok_after_remove = check_survivors () in
      (match Itrie.self_check t with
       | Ok () -> ()
       | Error e -> Test.fail_reportf "self_check after removes: %s" e);
      (* Re-adding recycles freed slots; survivors must be untouched. *)
      List.iteri
        (fun i q ->
          let n = Itrie.probe t q in
          Itrie.set_value t n (1000 + i))
        readds;
      (match Itrie.self_check t with
       | Ok () -> ()
       | Error e -> Test.fail_reportf "self_check after re-adds: %s" e);
      ok_after_remove
      && List.for_all
           (fun (q, n, v) ->
             List.exists (Pfx.equal q) readds
             || (Pfx.equal (Itrie.prefix_at t n) q && Itrie.value t n = v))
           survivors)

(* --- Validation vs Validation_ref ------------------------------------- *)

let gen_probe = QCheck2.Gen.pair Testutil.gen_clustered_prefix Testutil.gen_small_asn

let check_validation_agrees vrps probes =
  let adb = Rpki.Validation.create vrps in
  let odb = Validation_ref.create vrps in
  if Rpki.Validation.cardinal adb <> Validation_ref.cardinal odb then
    QCheck2.Test.fail_reportf "cardinal %d vs oracle %d" (Rpki.Validation.cardinal adb)
      (Validation_ref.cardinal odb);
  if
    not
      (List.equal Vrp.equal (Rpki.Validation.vrps adb) (Validation_ref.vrps odb))
  then QCheck2.Test.fail_report "vrps listing diverged";
  List.for_all
    (fun (q, origin) ->
      Rpki.Validation.validate adb q origin = Validation_ref.validate odb q origin
      && Rpki.Validation.authorized adb q origin
         = Validation_ref.authorized odb q origin
      && List.equal Vrp.equal
           (Rpki.Validation.covering_vrps adb q)
           (Validation_ref.covering_vrps odb q))
    probes

let prop_validation_oracle =
  let open QCheck2 in
  let gen = Gen.pair Testutil.gen_vrp_list (Gen.list_size (Gen.int_range 1 40) gen_probe) in
  Test.make ~name:"Validation agrees with the record oracle" ~count:200 gen
    (fun (vrps, probes) -> check_validation_agrees vrps probes)

(* Dynamic adds and removes against a rebuilt-oracle model: the arena
   db is updated in place, the oracle is recreated from the maintained
   VRP list after every batch. *)
let prop_validation_dynamic =
  let open QCheck2 in
  let gen =
    Gen.triple Testutil.gen_vrp_list
      (Gen.list_size (Gen.int_range 1 60) (Gen.pair Gen.bool Testutil.gen_vrp))
      (Gen.list_size (Gen.int_range 1 30) gen_probe)
  in
  Test.make ~name:"Validation add/remove tracks the oracle" ~count:200 gen
    (fun (initial, ops, probes) ->
      let adb = Rpki.Validation.create initial in
      let model = ref (List.sort_uniq Vrp.compare initial) in
      List.iter
        (fun (add, v) ->
          let present = List.exists (Vrp.equal v) !model in
          if add then begin
            if Rpki.Validation.add adb v <> not present then
              Test.fail_reportf "add %s disagreed with the model" (Vrp.to_string v);
            if not present then model := List.sort_uniq Vrp.compare (v :: !model)
          end
          else begin
            if Rpki.Validation.remove adb v <> present then
              Test.fail_reportf "remove %s disagreed with the model" (Vrp.to_string v);
            model := List.filter (fun w -> not (Vrp.equal v w)) !model
          end)
        ops;
      let odb = Validation_ref.create !model in
      Rpki.Validation.cardinal adb = Validation_ref.cardinal odb
      && List.equal Vrp.equal (Rpki.Validation.vrps adb) (Validation_ref.vrps odb)
      && List.for_all
           (fun (q, origin) ->
             Rpki.Validation.validate adb q origin
             = Validation_ref.validate odb q origin
             && List.equal Vrp.equal
                  (Rpki.Validation.covering_vrps adb q)
                  (Validation_ref.covering_vrps odb q))
           probes)

(* --- Bgp_table vs Bgp_table_ref --------------------------------------- *)

let gen_pair_list n =
  QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 n)
    (QCheck2.Gen.pair Testutil.gen_clustered_prefix Testutil.gen_small_asn)

(* The §4 minimality test read off the oracle's census: level [i]
   below the prefix holds all 2^i subprefixes. *)
let fully_announced_ref r q origin ~max_len =
  let counts = Bgp_table_ref.count_by_length_under r q origin ~max_len in
  let rec go i = i >= Array.length counts || (counts.(i) = 1 lsl i && go (i + 1)) in
  go 0

let check_bgp_agrees t r probes =
  let pair_eq (p1, a1) (p2, a2) = Pfx.equal p1 p2 && Rpki.Asnum.equal a1 a2 in
  Dataset.Bgp_table.cardinal t = Bgp_table_ref.cardinal r
  && List.equal pair_eq (Dataset.Bgp_table.pairs t) (Bgp_table_ref.pairs r)
  && Dataset.Bgp_table.root_pair_count t = Bgp_table_ref.root_pair_count r
  && List.for_all
       (fun (q, origin) ->
         let max_len = min (Pfx.addr_bits q) (Pfx.length q + 6) in
         Dataset.Bgp_table.mem t q origin = Bgp_table_ref.mem r q origin
         && List.equal
              (fun (p1, l1) (p2, l2) -> Pfx.equal p1 p2 && Int.equal l1 l2)
              (Dataset.Bgp_table.announced_under t q origin)
              (Bgp_table_ref.announced_under r q origin)
         && Array.for_all2 Int.equal
              (Dataset.Bgp_table.count_by_length_under t q origin ~max_len)
              (Bgp_table_ref.count_by_length_under r q origin ~max_len)
         && List.for_all
              (fun max_len ->
                Dataset.Bgp_table.fully_announced t q origin ~max_len
                = fully_announced_ref r q origin ~max_len)
              [ Pfx.length q; min (Pfx.addr_bits q) (Pfx.length q + 1); max_len ])
       probes

let prop_bgp_oracle =
  let open QCheck2 in
  let gen = Gen.triple (gen_pair_list 120) (gen_pair_list 40) (gen_pair_list 40) in
  Test.make ~name:"Bgp_table agrees with the record oracle" ~count:150 gen
    (fun (adds, removes, probes) ->
      let t = Dataset.Bgp_table.create () in
      let r = Bgp_table_ref.create () in
      List.iter
        (fun (q, origin) ->
          Dataset.Bgp_table.add t q origin;
          Bgp_table_ref.add r q origin)
        adds;
      List.iter
        (fun (q, origin) ->
          let got = Dataset.Bgp_table.remove t q origin in
          let expected = Bgp_table_ref.remove r q origin in
          if got <> expected then
            Test.fail_reportf "remove %s %s disagreed" (Pfx.to_string q)
              (Rpki.Asnum.to_string origin))
        removes;
      check_bgp_agrees t r probes)

(* The order contract of [Bgp_table.fold] (bgp_table.mli): every pair
   once, strictly ascending by (Pfx.compare, Asnum.compare) — v4
   before v6, MOAS origins ascending. The [Minimal] corpora rely on it
   instead of sorting, so each must equal the sorted, deduplicated
   list of its tuples. *)
let prop_bgp_fold_order =
  let open QCheck2 in
  let gen = Gen.pair (gen_pair_list 150) (gen_pair_list 40) in
  Test.make ~name:"Bgp_table.fold yields strictly ascending pairs" ~count:150 gen
    (fun (adds, removes) ->
      let t = Dataset.Bgp_table.create () and r = Bgp_table_ref.create () in
      List.iter
        (fun (q, origin) ->
          Dataset.Bgp_table.add t q origin;
          Bgp_table_ref.add r q origin)
        adds;
      List.iter
        (fun (q, origin) ->
          ignore (Dataset.Bgp_table.remove t q origin);
          ignore (Bgp_table_ref.remove r q origin))
        removes;
      let folded =
        List.rev (Dataset.Bgp_table.fold t ~init:[] ~f:(fun acc q origin -> (q, origin) :: acc))
      in
      let pair_compare (p1, a1) (p2, a2) =
        let c = Pfx.compare p1 p2 in
        if c <> 0 then c else Rpki.Asnum.compare a1 a2
      in
      let rec ascending = function
        | x :: (y :: _ as rest) -> pair_compare x y < 0 && ascending rest
        | [] | [ _ ] -> true
      in
      let sorted_vrps f = List.sort_uniq Vrp.compare (List.filter_map f folded) in
      let exact_where keep =
        sorted_vrps (fun (q, origin) -> if keep origin then Some (Vrp.exact q origin) else None)
      in
      (* Exact VRPs authorize only their own pair, so [minimal_vrps]
         over the odd origins' exact VRPs must return exactly them. *)
      let odd = exact_where (fun origin -> Rpki.Asnum.to_int origin land 1 = 1) in
      if not (ascending folded) then Test.fail_report "fold order is not strictly ascending";
      List.length folded = Dataset.Bgp_table.cardinal t
      && List.equal (fun x y -> pair_compare x y = 0) folded (Dataset.Bgp_table.pairs t)
      && List.equal Vrp.equal
           (Mlcore.Minimal.full_deployment_vrps t)
           (exact_where (fun _ -> true))
      && List.equal Vrp.equal
           (Mlcore.Minimal.max_permissive_vrps t)
           (sorted_vrps (fun (q, origin) ->
                if Bgp_table_ref.has_same_origin_ancestor r q origin then None
                else Some (Vrp.make_exn q ~max_len:(Pfx.addr_bits q) origin)))
      && List.equal Vrp.equal (Mlcore.Minimal.minimal_vrps t (List.rev odd)) odd)

(* The §6 whole-table walks against their per-pair definitions: the
   lower bound and its corpus against the oracle's same-origin
   ancestor test, and [minimal_vrps] against the oracle's RFC 6811
   authorization of every announced pair. The tables hold both
   families and MOAS prefixes, with origins 0–8, so some pairs have
   origin AS0. They are built by adds, then removes, then more adds,
   which take freed entry slots back off the freelist: the marks must
   follow a recycled slot's new pair. The VRP sets mix, in shuffled
   order, VRPs of a pair's own origin on its prefix, AS0 VRPs on an
   ancestor, nested same-origin VRPs with different maxLengths (both
   match the pair, which must still come out once) and VRPs in space
   no generated prefix reaches (100/8, 2001:db9::/32). *)
let gen_walk_case =
  let open QCheck2.Gen in
  let origin = map Rpki.Asnum.of_int (int_range 0 8) in
  let pair = pair Testutil.gen_clustered_prefix origin in
  let* adds = list_size (int_range 1 120) pair in
  let* removes = list_size (int_range 0 60) (oneof [ oneofl adds; pair ]) in
  let* readds = list_size (int_range 0 40) pair in
  (* a VRP on [q] whose maxLength is [extra] bits past [at], capped *)
  let vrp q ~at extra asn =
    Vrp.make_exn q ~max_len:(min (Pfx.addr_bits q) (Pfx.length at + extra)) asn
  in
  let ancestor q = map (fun k -> Pfx.truncate q (max 0 (Pfx.length q - k))) (int_bound 6) in
  let on_table =
    let* q, origin = oneofl adds in
    let* anc = ancestor q and* i = int_bound 3 and* j = int_bound 3 in
    oneofl
      [ [ vrp q ~at:q i origin ];
        [ vrp anc ~at:q i Rpki.Asnum.zero ];
        [ vrp anc ~at:q (i + 1 + j) origin; vrp q ~at:q i origin ] ]
  in
  let elsewhere =
    let* v6 = bool and* bits = int_bound 0xffff and* i = int_bound 8 and* asn = origin in
    let q =
      Pfx.of_string_exn
        (if v6 then Printf.sprintf "2001:db9:%x::/48" bits
         else Printf.sprintf "100.%d.%d.0/24" (bits lsr 8) (bits land 0xff))
    in
    return [ vrp q ~at:q i asn ]
  in
  let* groups = list_size (int_range 0 40) (oneof [ on_table; on_table; elsewhere ]) in
  let* vrps = shuffle_l (List.concat groups) in
  return (adds, removes, readds, vrps)

let prop_walks_oracle =
  let open QCheck2 in
  Test.make ~name:"the section-6 walks agree with their per-pair definitions" ~count:200
    gen_walk_case (fun (adds, removes, readds, vrps) ->
      let t = Dataset.Bgp_table.create () and r = Bgp_table_ref.create () in
      let add (q, origin) =
        Dataset.Bgp_table.add t q origin;
        Bgp_table_ref.add r q origin
      in
      List.iter add adds;
      List.iter
        (fun (q, origin) ->
          ignore (Dataset.Bgp_table.remove t q origin);
          ignore (Bgp_table_ref.remove r q origin))
        removes;
      List.iter add readds;
      let pairs = Bgp_table_ref.pairs r in
      let roots =
        List.filter_map
          (fun (q, origin) ->
            if Bgp_table_ref.has_same_origin_ancestor r q origin then None
            else Some (Vrp.make_exn q ~max_len:(Pfx.addr_bits q) origin))
          pairs
      in
      let odb = Validation_ref.create vrps in
      let valid =
        List.filter_map
          (fun (q, origin) ->
            if Validation_ref.authorized odb q origin then Some (Vrp.exact q origin) else None)
          pairs
      in
      let count = Dataset.Bgp_table.root_pair_count t in
      if count <> List.length roots then
        Test.fail_reportf "root_pair_count %d, oracle %d" count (List.length roots);
      if not (List.equal Vrp.equal (Mlcore.Minimal.max_permissive_vrps t) roots) then
        Test.fail_report "max_permissive_vrps diverged from the oracle's roots";
      let got = Mlcore.Minimal.minimal_vrps t vrps in
      if not (List.equal Vrp.equal got valid) then
        Test.fail_reportf "minimal_vrps gave %d VRPs, per-pair authorization %d"
          (List.length got) (List.length valid);
      true)

(* --- Compress vs the record-path reference ---------------------------- *)

let stats_equal (s1 : Mlcore.Compress.stats) (s2 : Mlcore.Compress.stats) =
  s1.Mlcore.Compress.input = s2.Mlcore.Compress.input
  && s1.Mlcore.Compress.covered_eliminated = s2.Mlcore.Compress.covered_eliminated
  && s1.Mlcore.Compress.merges = s2.Mlcore.Compress.merges
  && s1.Mlcore.Compress.children_absorbed = s2.Mlcore.Compress.children_absorbed
  && s1.Mlcore.Compress.output = s2.Mlcore.Compress.output

let check_compress_agrees vrps =
  List.for_all
    (fun mode ->
      let ref_out, ref_stats = Compress_ref.run_with_stats ~mode vrps in
      let out, stats = Mlcore.Compress.run_with_stats ~mode vrps in
      if not (List.equal Vrp.equal out ref_out) then QCheck2.Test.fail_report "output diverged";
      if not (stats_equal stats ref_stats) then QCheck2.Test.fail_report "stats diverged";
      true)
    [ Mlcore.Compress.Strict; Mlcore.Compress.Paper ]

let prop_compress_oracle =
  QCheck2.Test.make ~name:"compress agrees with run_reference at every mode and eliminate setting"
    ~count:100 Testutil.gen_vrp_list check_compress_agrees

(* Elimination runs inside the compress walk, so its count is what
   the reference's standalone pass removes. *)
let prop_eliminate_oracle =
  let open QCheck2 in
  Test.make ~name:"eliminate_covered agrees with its reference" ~count:150
    Testutil.gen_vrp_list (fun vrps ->
      let _, s = Mlcore.Compress.run_with_stats vrps in
      s.Mlcore.Compress.covered_eliminated
      = s.Mlcore.Compress.input - List.length (Compress_ref.eliminate_covered vrps))

(* --- Vrp_store.sort_dedup vs a reference comparison sort ------------- *)

module Store = Arena.Vrp_store

(* Store inputs: both families, MOAS prefixes (a handful of origins),
   ASNs wide enough to need every radix digit, and exact duplicates.
   Each list comes with a shuffle of itself. *)
let gen_store_input =
  let open QCheck2.Gen in
  let wide_asn =
    oneof
      [ int_range 1 8;
        int_range 0 ((1 lsl 32) - 1);
        map (fun k -> (1 lsl 21) + k) (int_bound 3);
        map (fun k -> (1 lsl 32) - 1 - k) (int_bound 3) ]
  in
  let* asn = oneofl [ int_range 1 8; return 64500; wide_asn ] in
  let gen_vrp =
    let* q = Testutil.gen_clustered_prefix in
    let* origin = asn in
    let* extra = int_bound (min 4 (Pfx.addr_bits q - Pfx.length q)) in
    return (Vrp.make_exn q ~max_len:(Pfx.length q + extra) (Rpki.Asnum.of_int origin))
  in
  let* base = list_size (int_range 0 80) gen_vrp in
  let* dups = list_size (int_bound 10) (match base with [] -> gen_vrp | _ -> oneofl base) in
  let vrps = base @ dups in
  let* shuffled = shuffle_l vrps in
  return (vrps, shuffled)

(* The store's group order, (asn, family, prefix, maxLength), as a
   plain comparison sort. *)
let group_compare (x : Vrp.t) (y : Vrp.t) =
  let c = Rpki.Asnum.compare x.Vrp.asn y.Vrp.asn in
  if c <> 0 then c
  else begin
    let c = Pfx.afi_compare (Pfx.afi x.Vrp.prefix) (Pfx.afi y.Vrp.prefix) in
    if c <> 0 then c
    else begin
      let c = Pfx.compare x.Vrp.prefix y.Vrp.prefix in
      if c <> 0 then c else Int.compare x.Vrp.max_len y.Vrp.max_len
    end
  end

let same_group (x : Vrp.t) (y : Vrp.t) =
  Rpki.Asnum.equal x.Vrp.asn y.Vrp.asn
  && Pfx.afi_equal (Pfx.afi x.Vrp.prefix) (Pfx.afi y.Vrp.prefix)

let reference_ranges rows =
  let n = Array.length rows in
  let rec go lo i acc =
    if i >= n then List.rev (if n = 0 then acc else (lo, n) :: acc)
    else if same_group rows.(i - 1) rows.(i) then go lo (i + 1) acc
    else go i (i + 1) ((lo, i) :: acc)
  in
  Array.of_list (go 0 1 [])

let store_row st i =
  Vrp.make_exn (Store.prefix st i) ~max_len:(Store.max_len st i)
    (Rpki.Asnum.of_int (Store.asn st i))

let prop_sort_dedup_reference =
  let open QCheck2 in
  Test.make ~name:"sort_dedup equals a reference sort, ranks are canonical" ~count:300
    gen_store_input (fun (vrps, shuffled) ->
      let expected = Array.of_list (List.sort_uniq group_compare vrps) in
      let canonical = List.sort_uniq Vrp.compare vrps in
      List.for_all
        (fun (order, input) ->
          let st = Store.create ~capacity:4 in
          List.iter
            (fun (v : Vrp.t) ->
              Store.push st v.Vrp.prefix ~max_len:v.Vrp.max_len
                ~asn:(Rpki.Asnum.to_int v.Vrp.asn))
            input;
          Store.sort_dedup st;
          let n = Store.length st in
          let rows = Array.init n (store_row st) in
          if not (Array.for_all2 Vrp.equal rows expected) then
            Test.fail_reportf "%s push order: columns differ from the reference" order;
          if
            not
              (Array.for_all2
                 (fun (l1, h1) (l2, h2) -> Int.equal l1 l2 && Int.equal h1 h2)
                 (Store.group_ranges st) (reference_ranges expected))
          then Test.fail_reportf "%s push order: group ranges differ" order;
          let by_rank = Array.make n None in
          Array.iteri (fun i v -> by_rank.(Store.rank st i) <- Some v) rows;
          if
            not
              (List.equal Vrp.equal canonical
                 (List.filter_map Fun.id (Array.to_list by_rank)))
          then Test.fail_reportf "%s push order: ranks are not Vrp.compare order" order;
          let sorts = Store.sort_count st in
          Store.sort_dedup st;
          Int.equal sorts (if n = 0 then 0 else 1) && Int.equal (Store.sort_count st) sorts)
        [ ("canonical", List.sort Vrp.compare vrps);
          ("reversed", List.rev (List.sort Vrp.compare vrps));
          ("shuffled", shuffled) ])

(* The rank walk must not depend on the order the input arrived in:
   canonical input takes the sort-free path, any other order the
   fallback sort, and both must emit the same list. *)
let prop_compress_order_independent =
  let open QCheck2 in
  Test.make ~name:"compress output is independent of input order" ~count:100
    gen_store_input (fun (vrps, shuffled) ->
      let canonical = List.sort Vrp.compare vrps in
      List.for_all
        (fun mode ->
          let expected = Mlcore.Compress.run ~mode canonical in
          List.for_all
            (fun input -> List.equal Vrp.equal expected (Mlcore.Compress.run ~mode input))
            [ List.rev canonical; shuffled ])
        [ Mlcore.Compress.Strict; Mlcore.Compress.Paper ])

let test_figure2_arena_matches_reference () =
  Alcotest.(check (list Testutil.vrp))
    "figure 2 via the arena equals the reference" (Compress_ref.run Testutil.figure2)
    (Mlcore.Compress.run Testutil.figure2)

let test_validation_empty_and_single () =
  Alcotest.(check int) "empty cardinal" 0 (Rpki.Validation.cardinal (Rpki.Validation.create []));
  let v = Vrp.make_exn (p "10.0.0.0/8") ~max_len:16 (a 64500) in
  Alcotest.(check bool) "single VRP agrees" true
    (check_validation_agrees [ v ]
       [ (p "10.0.0.0/12", a 64500); (p "10.0.0.0/24", a 64500); (p "11.0.0.0/8", a 64500) ])

(* --- snapshot scale ------------------------------------------------------ *)

(* The checks above run on small random inputs. These run the same
   comparisons on a calibrated corpus: the seed-42 snapshot at scale
   0.05 (38,847 announced pairs, 2,006 VRPs), with every announced
   pair as a probe. *)
type corpus = {
  table : Dataset.Bgp_table.t;
  vrps : Vrp.t list;
  full : Vrp.t list;  (** [Minimal.full_deployment_vrps table] *)
  pairs : (Pfx.t * Rpki.Asnum.t) array;
  adb : Rpki.Validation.db;
  odb : Validation_ref.db;
  rtable : Bgp_table_ref.t;
}

let corpus =
  lazy
    (let snap = Dataset.Snapshot.generate ~params:(Dataset.Snapshot.scaled 0.05) ~seed:42 () in
     let table = snap.Dataset.Snapshot.table in
     let vrps = Dataset.Snapshot.vrps snap in
     let pairs = Array.of_list (Dataset.Bgp_table.pairs table) in
     let rtable = Bgp_table_ref.create () in
     Array.iter (fun (q, origin) -> Bgp_table_ref.add rtable q origin) pairs;
     { table;
       vrps;
       full = Mlcore.Minimal.full_deployment_vrps table;
       pairs;
       adb = Rpki.Validation.create vrps;
       odb = Validation_ref.create vrps;
       rtable })

let state_code = function
  | Rpki.Validation.Valid -> 1
  | Rpki.Validation.Invalid -> 2
  | Rpki.Validation.Not_found -> 3

let test_snapshot_agrees () =
  let c = Lazy.force corpus in
  let probes = Array.to_list c.pairs in
  Alcotest.(check bool) "validation agrees on every announced pair" true
    (check_validation_agrees c.vrps probes);
  Alcotest.(check bool) "Bgp_table agrees on every announced pair" true
    (check_bgp_agrees c.table c.rtable probes);
  Alcotest.(check bool) "compress agrees on today's VRPs" true (check_compress_agrees c.vrps);
  Alcotest.(check bool) "compress agrees on the full deployment" true
    (check_compress_agrees c.full)

(* Words one call of [f] allocates, after a warm-up call (which
   creates any lazily built scratch state). *)
let allocated_words f =
  f ();
  snd (Testutil.allocated_words f)

(* The arena's advantage over the record oracles is that its queries
   do not allocate, which a count shows where a wall-clock race on a
   shared host only suggests. On each workload the arena path must
   allocate strictly fewer words than the oracle. The sweeps fill a
   preallocated array, so neither side pays for its results. *)
let test_snapshot_allocates_less () =
  let c = Lazy.force corpus in
  let n = Array.length c.pairs in
  let scratch = Array.make n 0 in
  let sweep f () =
    for i = 0 to n - 1 do
      let q, origin = c.pairs.(i) in
      scratch.(i) <- f q origin
    done
  in
  let workloads =
    [ ( "validate sweep",
        sweep (fun q origin -> state_code (Validation_ref.validate c.odb q origin)),
        sweep (fun q origin -> state_code (Rpki.Validation.validate c.adb q origin)) );
      ( "lower-bound count",
        (fun () -> ignore (Bgp_table_ref.root_pair_count c.rtable)),
        fun () -> ignore (Dataset.Bgp_table.root_pair_count c.table) );
      ( "compress, today's VRPs",
        (fun () -> ignore (Compress_ref.run c.vrps)),
        fun () -> ignore (Mlcore.Compress.run c.vrps) );
      ( "compress, full deployment",
        (fun () -> ignore (Compress_ref.run c.full)),
        fun () -> ignore (Mlcore.Compress.run c.full) ) ]
  in
  List.iter
    (fun (name, oracle, arena) ->
      let oracle_words = allocated_words oracle in
      let arena_words = allocated_words arena in
      Alcotest.(check bool)
        (Printf.sprintf "%s: arena %.0f words < oracle %.0f words" name arena_words oracle_words)
        true
        (arena_words < oracle_words))
    workloads;
  (* A bound, not only a race: [Compress.run] stays at or below 38
     words per input tuple on both corpora. The one-walk kernel reads
     35.1 and 32.2 (35.3 and 32.2 sanitized); a kernel that sorts each
     group before filling its trie reads 45.7 and 43.3, and fails. *)
  List.iter
    (fun (name, vrps) ->
      let per_tuple =
        allocated_words (fun () -> ignore (Mlcore.Compress.run vrps))
        /. float_of_int (List.length vrps)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: Compress.run allocates %.1f words per input tuple (bound 38)" name
           per_tuple)
        true (per_tuple <= 38.0))
    [ ("compress, today's VRPs", c.vrps); ("compress, full deployment", c.full) ];
  (* The §6 walks, bounded outright. The lower-bound count allocates
     only its two ancestor stacks, 178 words (a fold of one
     same-origin ancestor descent per pair read 436,144), and the
     full-deployment list one cons, one VRP and a share of one boxed
     prefix per pair, 11.2 words (a fold that conses, then reverses,
     read 21.2). *)
  let roots_words =
    allocated_words (fun () -> ignore (Dataset.Bgp_table.root_pair_count c.table))
  in
  Alcotest.(check bool)
    (Printf.sprintf "root_pair_count allocates %.0f words (bound 1,000)" roots_words)
    true (roots_words < 1000.0);
  let full_per_pair =
    allocated_words (fun () -> ignore (Mlcore.Minimal.full_deployment_vrps c.table))
    /. float_of_int (Dataset.Bgp_table.cardinal c.table)
  in
  Alcotest.(check bool)
    (Printf.sprintf "full_deployment_vrps allocates %.1f words per pair (bound 12)"
       full_per_pair)
    true (full_per_pair <= 12.0)

(* --- sanitizer: generation-tagged handles ------------------------------ *)

module San = Arena.San
module Vrp_db = Arena.Vrp_db
module Bgp_db = Arena.Bgp_db

(* Stores capture the flag at [create], so flipping it here only
   affects the stores each test builds; restore it so the rest of the
   suite runs in whatever mode the environment asked for. *)
let with_sanitizer on f =
  let prev = San.enabled () in
  San.set_enabled on;
  Fun.protect ~finally:(fun () -> San.set_enabled prev) f

(* Randomized reset/recycle epochs under the sanitizer: within an
   epoch the trie must agree with a fresh Ptrie model and pass
   self_check (which also audits the generation columns); across
   epochs, every handle issued before the reset must be refused with a
   Violation rather than silently resolving into recycled slots. The
   deliberate handle stashing below is exactly what lint R11 exists to
   flag — waived because provoking the sanitizer is the point. *)
let prop_reset_recycle_sanitized =
  let open QCheck2 in
  let gen =
    Gen.list_size (Gen.int_range 1 4)
      (Gen.pair
         (Gen.list_size (Gen.int_range 1 60) Testutil.gen_clustered_v4_prefix)
         (Gen.list_size (Gen.int_range 0 30) Testutil.gen_clustered_v4_prefix))
  in
  Test.make ~name:"reset + freelist recycling under the sanitizer" ~count:100 gen
    (fun epochs ->
      with_sanitizer true (fun () ->
          let t = Itrie.create Pfx.Afi_v4 in
          let stale = ref [] in
          List.for_all
            (fun (adds, removes) ->
              (* every handle that survived into the previous reset
                 must now be refused, whatever its slot became *)
              List.iter
                (fun h ->
                  match Itrie.value t h with
                  | _ -> Test.fail_reportf "stale handle %#x resolved after reset" h
                  | exception San.Violation _ -> ())
                !stale;
              let m = Ptrie.create Pfx.Afi_v4 in
              let handles =
                List.mapi
                  (fun i q ->
                    let n = Itrie.probe t q in
                    Itrie.set_value t n i;
                    Ptrie.add m q i;
                    n)
                  (List.sort_uniq Pfx.compare adds)
              in
              List.iter
                (fun q ->
                  ignore (Itrie.remove t q);
                  Ptrie.remove m q)
                removes;
              (match Itrie.self_check t with
               | Ok () -> ()
               | Error e -> Test.fail_reportf "self_check under sanitizer: %s" e);
              let agreed =
                Itrie.cardinal t = Ptrie.cardinal m
                && List.equal
                     (fun (p1, v1) (p2, v2) -> Pfx.equal p1 p2 && Int.equal v1 v2)
                     (Ptrie.to_list m) (itrie_to_list t)
              in
              stale := handles;
              Itrie.reset t;
              (match Itrie.self_check t with
               | Ok () -> ()
               | Error e -> Test.fail_reportf "self_check after reset: %s" e);
              agreed)
            epochs))
  [@@lint.handle_ok]

(* The delta-API version of the handle-reuse property, under the
   sanitizer: interleaved Vrp_db add/remove — the mutation stream the
   churn engine drives — must never let a handle freed by [remove]
   resolve again, even after its slot is recycled by a later add,
   while every still-live entry's cursor keeps reporting its original
   (max_len, asn). The store is audited after {e every} mutation.
   Deliberate handle stashing again, waived for the same reason as
   above. *)
let prop_delta_stale_handles =
  let open QCheck2 in
  let gen = Gen.list_size (Gen.int_range 1 80) (Gen.pair Gen.bool Testutil.gen_vrp) in
  Test.make ~name:"delta add/remove never resurrects freed cursors" ~count:150 gen
    (fun ops ->
      with_sanitizer true (fun () ->
          let db = Vrp_db.create () in
          let find_handle (v : Vrp.t) =
            let rec go h =
              if h = -1 then None
              else if
                Vrp_db.entry_max_len db h = v.Vrp.max_len
                && Vrp_db.entry_asn db h = Rpki.Asnum.to_int v.Vrp.asn
              then Some h
              else go (Vrp_db.next db h)
            in
            go (Vrp_db.first db v.Vrp.prefix)
          in
          let live = ref [] and freed = ref [] in
          let audit op =
            (match Vrp_db.self_check db with
             | Ok () -> ()
             | Error e -> Test.fail_reportf "self_check after %s: %s" op e);
            List.iter
              (fun (w, h) ->
                if
                  Vrp_db.entry_max_len db h <> w.Vrp.max_len
                  || Vrp_db.entry_asn db h <> Rpki.Asnum.to_int w.Vrp.asn
                then
                  Test.fail_reportf "live cursor of %s changed meaning after %s"
                    (Vrp.to_string w) op)
              !live;
            List.iter
              (fun h ->
                match Vrp_db.entry_max_len db h with
                | v -> Test.fail_reportf "freed cursor resolved to %d after %s" v op
                | exception San.Violation _ -> ())
              !freed
          in
          List.iter
            (fun (add, v) ->
              let op = (if add then "add " else "remove ") ^ Vrp.to_string v in
              if add then begin
                if
                  Vrp_db.add db v.Vrp.prefix ~max_len:v.Vrp.max_len
                    ~asn:(Rpki.Asnum.to_int v.Vrp.asn)
                then
                  match find_handle v with
                  | Some h -> live := (v, h) :: !live
                  | None -> Test.fail_reportf "added %s but no cursor" (Vrp.to_string v)
              end
              else if
                Vrp_db.remove db v.Vrp.prefix ~max_len:v.Vrp.max_len
                  ~asn:(Rpki.Asnum.to_int v.Vrp.asn)
              then begin
                let gone, kept = List.partition (fun (w, _) -> Vrp.equal v w) !live in
                live := kept;
                freed := List.map snd gone @ !freed
              end;
              audit op)
            ops;
          true))
  [@@lint.handle_ok]

(* [read ()] must raise a sanitizer violation whose message names
   [store]. *)
let refused ~store what read =
  match read () with
  | v -> Alcotest.failf "%s resolved to %d" what v
  | exception San.Violation msg ->
    let nl = String.length store and ml = String.length msg in
    let rec scan i =
      i + nl <= ml && (String.equal (String.sub msg i nl) store || scan (i + 1))
    in
    Alcotest.(check bool) (what ^ ": violation names " ^ store) true (scan 0)

(* The deliberately-stale-handle test: hold a handle across the free
   that recycles its slot and the sanitizer must fire, for a v4 and a
   v6 trie (reset) and for both chain stores (entry removal, then an
   add to the same prefix that takes the freed slot off the LIFO
   freelist). Lint R11 reports the closure that captures the trie
   handle across [reset]; the capture is the point, hence the
   waiver. *)
let test_sanitizer_fires () =
  with_sanitizer true (fun () ->
      List.iter
        (fun q ->
          let what = Pfx.to_string q in
          let t = Itrie.create (Pfx.afi q) in
          let h = Itrie.probe t q in
          Itrie.set_value t h 7;
          Alcotest.(check int) (what ^ ": tagged handle resolves while live") 7 (Itrie.value t h);
          Itrie.reset t;
          refused ~store:"itrie" (what ^ ": stale trie handle after reset")
            ((fun () -> Itrie.value t h)
            [@lint.handle_ok
              "the closure reads a handle held across reset on purpose: the sanitizer must \
               refuse it"]))
        [ p "10.0.0.0/8"; p "2001:db8::/32" ];
      let slot h = h land 0xffff_ffff in
      let q = p "10.0.0.0/8" in
      let db = Vrp_db.create () in
      ignore (Vrp_db.add db q ~max_len:16 ~asn:64500);
      let c = Vrp_db.first db q in
      Alcotest.(check int) "cursor resolves while live" 16 (Vrp_db.entry_max_len db c);
      ignore (Vrp_db.remove db q ~max_len:16 ~asn:64500);
      refused ~store:"vrp_db" "freed VRP cursor" (fun () -> Vrp_db.entry_max_len db c);
      ignore (Vrp_db.add db q ~max_len:24 ~asn:64501);
      Alcotest.(check int) "VRP slot recycled" (slot c) (slot (Vrp_db.first db q));
      refused ~store:"vrp_db" "recycled VRP cursor" (fun () -> Vrp_db.entry_max_len db c);
      let bdb = Bgp_db.create () in
      Bgp_db.add bdb q ~asn:64500;
      let o = Bgp_db.first bdb q in
      Alcotest.(check int) "origin cursor resolves while live" 64500 (Bgp_db.origin bdb o);
      ignore (Bgp_db.remove bdb q ~asn:64500);
      refused ~store:"bgp_db" "freed origin cursor" (fun () -> Bgp_db.origin bdb o);
      Bgp_db.add bdb q ~asn:64501;
      Alcotest.(check int) "origin slot recycled" (slot o) (slot (Bgp_db.first bdb q));
      refused ~store:"bgp_db" "recycled origin cursor" (fun () -> Bgp_db.origin bdb o))

(* With the sanitizer off, handles must be raw indices — no tag bits,
   zero widening — which is what keeps the normal build's accessors at
   their pre-sanitizer cost. *)
let test_sanitizer_disabled_raw () =
  with_sanitizer false (fun () ->
      let t = Itrie.create Pfx.Afi_v4 in
      let h = Itrie.probe t (p "10.0.0.0/8") in
      Alcotest.(check int) "no generation tag" 0 (h lsr 32);
      Alcotest.(check int) "handle is its own index" h (Itrie.live_index t h))

(* --- memory: words per entry and the column census ---------------------- *)

(* Each store allocates only the columns its family and mode read: a v4
   trie holds chunk 0 only, [gen] exists only in sanitized stores, and
   every present column is exactly the capacity long — after creation,
   after growth and after a reset alike. *)
let check_census ~sanitized what (t : Itrie.t) =
  let cap = Itrie.capacity t in
  let v6 = match Itrie.afi t with Pfx.Afi_v4 -> false | Pfx.Afi_v6 -> true in
  List.iter
    (fun (name, column, present) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: column %s" what name)
        (if present then cap else 0)
        (Array.length column))
    [ ("c0", t.Itrie.c0, true);
      ("c1", t.Itrie.c1, v6);
      ("c2", t.Itrie.c2, v6);
      ("c3", t.Itrie.c3, v6);
      ("len", t.Itrie.len, true);
      ("left", t.Itrie.left, true);
      ("right", t.Itrie.right, true);
      ("value", t.Itrie.value, true);
      ("gen", t.Itrie.gen, sanitized) ];
  match Itrie.self_check t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: self_check: %s" what e

(* The arena's memory at the paper's full-deployment shape (one exact
   VRP per announced pair), at scale 0.05: the validation database and
   the snapshot's BGP table each hold at most their budget of live
   words per entry, in whatever mode the environment runs. *)
let test_memory_words_per_entry () =
  let c = Lazy.force corpus in
  let per_entry x n = float_of_int (Testutil.live_words x) /. float_of_int n in
  let db = Rpki.Validation.create c.full in
  let vrp_words = per_entry db (Rpki.Validation.cardinal db) in
  Alcotest.(check bool)
    (Printf.sprintf "Validation.create: %.2f words per VRP <= 16" vrp_words)
    true (vrp_words <= 16.0);
  let pair_words = per_entry c.table (Dataset.Bgp_table.cardinal c.table) in
  Alcotest.(check bool)
    (Printf.sprintf "Bgp_table: %.2f words per pair <= 24" pair_words)
    true (pair_words <= 24.0);
  (* enough distinct prefixes to grow a fresh trie past its first
     capacity *)
  let v4 =
    List.init 300 (fun i ->
        Pfx.v4 (Netaddr.Ipv4.Prefix.make (Netaddr.Ipv4.of_int32_bits (i lsl 12)) 20))
  and v6 =
    List.init 300 (fun i ->
        Pfx.v6 (Netaddr.Ipv6.Prefix.make (Netaddr.Ipv6.make (Int64.of_int (i lsl 20)) 0L) 44))
  in
  List.iter
    (fun sanitized ->
      with_sanitizer sanitized (fun () ->
          List.iter
            (fun (family, prefixes) ->
              let what stage =
                Printf.sprintf "%s %s trie %s"
                  (if sanitized then "sanitized" else "plain")
                  (match family with Pfx.Afi_v4 -> "v4" | Pfx.Afi_v6 -> "v6")
                  stage
              in
              let t = Itrie.create family in
              check_census ~sanitized (what "when created") t;
              List.iteri (fun i q -> Itrie.set_value t (Itrie.probe t q) i) prefixes;
              List.iteri (fun i q -> if i mod 3 = 0 then ignore (Itrie.remove t q)) prefixes;
              check_census ~sanitized (what "after growth and removals") t;
              Itrie.reset t;
              check_census ~sanitized (what "after reset") t)
            [ (Pfx.Afi_v4, v4); (Pfx.Afi_v6, v6) ];
          (* the chain stores audit the same census over their tries
             and entry columns *)
          let vdb = Vrp_db.create () and bdb = Bgp_db.create () in
          List.iteri
            (fun i q ->
              ignore (Vrp_db.add vdb q ~max_len:(Pfx.length q) ~asn:i);
              Bgp_db.add bdb q ~asn:i)
            (v4 @ v6);
          List.iter
            (fun (store, audit) ->
              match audit with
              | Ok () -> ()
              | Error e ->
                Alcotest.failf "%s %s: self_check: %s"
                  (if sanitized then "sanitized" else "plain") store e)
            [ ("vrp_db", Vrp_db.self_check vdb); ("bgp_db", Bgp_db.self_check bdb) ]))
    [ false; true ]

let () =
  Alcotest.run "arena"
    [ ( "itrie",
        [ Alcotest.test_case "basics" `Quick test_itrie_basics;
          Alcotest.test_case "order matches Ptrie" `Quick test_itrie_order_matches_ptrie ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_itrie_model Pfx.Afi_v4 Testutil.gen_clustered_v4_prefix
                "Itrie agrees with Ptrie (v4)";
              prop_itrie_model Pfx.Afi_v6 Testutil.gen_clustered_v6_prefix
                "Itrie agrees with Ptrie (v6)";
              prop_handle_reuse ] );
      ( "validation",
        [ Alcotest.test_case "empty and single" `Quick test_validation_empty_and_single ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_validation_oracle; prop_validation_dynamic ] );
      ( "bgp_table",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bgp_oracle; prop_bgp_fold_order; prop_walks_oracle ] );
      ("vrp_store", List.map QCheck_alcotest.to_alcotest [ prop_sort_dedup_reference ]);
      ( "sanitizer",
        [ Alcotest.test_case "stale handles are refused" `Quick test_sanitizer_fires;
          Alcotest.test_case "disabled means raw handles" `Quick
            test_sanitizer_disabled_raw ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_reset_recycle_sanitized; prop_delta_stale_handles ] );
      ( "compress",
        [ Alcotest.test_case "figure 2" `Quick test_figure2_arena_matches_reference ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_compress_oracle; prop_eliminate_oracle; prop_compress_order_independent ] );
      ( "snapshot",
        [ Alcotest.test_case "arena agrees with the oracles" `Quick test_snapshot_agrees;
          Alcotest.test_case "arena allocates less than the oracles" `Quick
            test_snapshot_allocates_less;
          Alcotest.test_case "arena memory: words per entry" `Quick
            test_memory_words_per_entry ] ) ]
