(* The address operations only these tests use live here, beside the
   library's own. *)
module Ipv4 = struct
  include Netaddr.Ipv4

  let of_octets a b c d =
    of_int32_bits
      (((a land 0xff) lsl 24) lor ((b land 0xff) lsl 16) lor ((c land 0xff) lsl 8)
     lor (d land 0xff))

  let of_string_exn s = match of_string s with Ok a -> a | Error e -> invalid_arg e
  let compare a b = Int.compare (to_int a) (to_int b)
  let succ a = of_int32_bits (to_int a + 1)
end

module P = struct
  include Netaddr.Ipv4.Prefix

  let of_string_exn s = match of_string s with Ok p -> p | Error e -> invalid_arg e
  let mem a p = subset (make a Ipv4.bits) p
  let strict_subset sub sup = length sub > length sup && subset sub sup
  let parent p = if length p = 0 then None else Some (truncate p (length p - 1))

  let sibling p =
    Option.bind (parent p) (fun q ->
        Option.map (fun (l, r) -> if equal l p then r else l) (split q))

  let first = network

  (* Greedy largest-aligned-block sweep: at [lo], the block size is
     bounded both by [lo]'s alignment and by the remaining range. *)
  let summarize lo hi =
    let lo = Ipv4.to_int lo and hi = Ipv4.to_int hi in
    if lo > hi then invalid_arg "summarize: empty range";
    let rec go lo acc =
      if lo > hi then List.rev acc
      else begin
        let align =
          if lo = 0 then Ipv4.bits
          else
            let rec tz n i = if n land 1 = 1 then i else tz (n lsr 1) (i + 1) in
            tz lo 0
        in
        let rec fit size_log =
          if size_log > 0 && (size_log > align || lo + (1 lsl size_log) - 1 > hi) then
            fit (size_log - 1)
          else size_log
        in
        let size_log = fit (min align 32) in
        go (lo + (1 lsl size_log)) (make (Ipv4.of_int32_bits lo) (32 - size_log) :: acc)
      end
    in
    go lo []
end

let check_addr = Alcotest.check Testutil.ipv4

let test_of_string_valid () =
  List.iter
    (fun (s, octets) ->
      let x, y, z, w = octets in
      check_addr s (Ipv4.of_octets x y z w) (Ipv4.of_string_exn s))
    [ ("0.0.0.0", (0, 0, 0, 0));
      ("255.255.255.255", (255, 255, 255, 255));
      ("168.122.0.1", (168, 122, 0, 1));
      ("1.2.3.4", (1, 2, 3, 4));
      ("10.0.0.255", (10, 0, 0, 255)) ]

let test_of_string_invalid () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid address %S" s
      | Error _ -> ())
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "1.2.3.256"; "a.b.c.d"; "1..2.3"; "1.2.3.4 ";
      " 1.2.3.4"; "01.2.3.4x"; "1.2.3.-4"; "1.2.3.4/8"; "1.2.3.0xff" ]

let test_leading_zeros () =
  (* "007" is three digits <= 255; dotted-quad convention accepts it
     as decimal (no octal semantics). "0007" must be rejected. *)
  check_addr "leading zeros" (Ipv4.of_octets 0 0 0 7) (Ipv4.of_string_exn "0.0.0.007");
  match Ipv4.of_string "0.0.0.0007" with
  | Ok _ -> Alcotest.fail "accepted 4-digit octet"
  | Error _ -> ()

let test_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipv4.to_string (Ipv4.of_string_exn s)))
    [ "0.0.0.0"; "255.255.255.255"; "168.122.225.0"; "8.8.8.8" ]

let test_bits () =
  let addr = Ipv4.of_string_exn "128.0.0.1" in
  Alcotest.(check bool) "msb set" true (Ipv4.bit addr 0);
  Alcotest.(check bool) "bit 1 clear" false (Ipv4.bit addr 1);
  Alcotest.(check bool) "lsb set" true (Ipv4.bit addr 31);
  check_addr "set_bit" (Ipv4.of_string_exn "192.0.0.1") (Ipv4.set_bit addr 1 true);
  check_addr "clear msb" (Ipv4.of_string_exn "0.0.0.1") (Ipv4.set_bit addr 0 false)

let test_succ_wraps () =
  check_addr "wrap" (Ipv4.of_string_exn "0.0.0.0") (Ipv4.succ (Ipv4.of_string_exn "255.255.255.255"));
  check_addr "carry" (Ipv4.of_string_exn "10.1.0.0") (Ipv4.succ (Ipv4.of_string_exn "10.0.255.255"))

let test_compare_order () =
  let sorted =
    List.sort Ipv4.compare
      (List.map Ipv4.of_string_exn [ "200.0.0.1"; "10.0.0.1"; "128.0.0.0"; "0.0.0.1" ])
  in
  Alcotest.(check (list string))
    "unsigned order"
    [ "0.0.0.1"; "10.0.0.1"; "128.0.0.0"; "200.0.0.1" ]
    (List.map Ipv4.to_string sorted)

(* --- prefixes --- *)

let pfx = Alcotest.testable P.pp P.equal

let test_prefix_parse () =
  let p = P.of_string_exn "168.122.0.0/16" in
  Alcotest.(check int) "length" 16 (P.length p);
  check_addr "network" (Ipv4.of_string_exn "168.122.0.0") (P.network p);
  (match P.of_string "168.122.0.1/16" with
   | Ok _ -> Alcotest.fail "accepted host bits"
   | Error _ -> ());
  List.iter
    (fun s ->
      match P.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "10.0.0.0"; "10.0.0.0/33"; "10.0.0.0/"; "10.0.0.0/x"; "10.0.0.0/-1"; "/8" ]

let test_prefix_mem () =
  let p = P.of_string_exn "168.122.0.0/16" in
  Alcotest.(check bool) "first" true (P.mem (Ipv4.of_string_exn "168.122.0.0") p);
  Alcotest.(check bool) "last" true (P.mem (Ipv4.of_string_exn "168.122.255.255") p);
  Alcotest.(check bool) "outside" false (P.mem (Ipv4.of_string_exn "168.123.0.0") p);
  let all = P.of_string_exn "0.0.0.0/0" in
  Alcotest.(check bool) "default route contains all" true
    (P.mem (Ipv4.of_string_exn "255.1.2.3") all)

let test_prefix_subset () =
  let p16 = P.of_string_exn "168.122.0.0/16" in
  let p24 = P.of_string_exn "168.122.225.0/24" in
  Alcotest.(check bool) "24 in 16" true (P.subset p24 p16);
  Alcotest.(check bool) "16 not in 24" false (P.subset p16 p24);
  Alcotest.(check bool) "self" true (P.subset p16 p16);
  Alcotest.(check bool) "strict self" false (P.strict_subset p16 p16);
  Alcotest.(check bool) "sibling" false
    (P.subset (P.of_string_exn "168.123.0.0/24") p16)

let test_prefix_split_parent_sibling () =
  let p = P.of_string_exn "168.122.0.0/16" in
  (match P.split p with
   | Some (l, r) ->
     Alcotest.check pfx "left" (P.of_string_exn "168.122.0.0/17") l;
     Alcotest.check pfx "right" (P.of_string_exn "168.122.128.0/17") r;
     Alcotest.check pfx "parent of left" p (Option.get (P.parent l));
     Alcotest.check pfx "parent of right" p (Option.get (P.parent r));
     Alcotest.check pfx "sibling of left" r (Option.get (P.sibling l));
     Alcotest.check pfx "sibling of right" l (Option.get (P.sibling r))
   | None -> Alcotest.fail "split /16 failed");
  Alcotest.(check bool) "no split of /32" true (P.split (P.of_string_exn "1.2.3.4/32") = None);
  Alcotest.(check bool) "no parent of /0" true (P.parent (P.of_string_exn "0.0.0.0/0") = None)

let test_prefix_first_last () =
  let p = P.of_string_exn "10.1.2.0/23" in
  check_addr "first" (Ipv4.of_string_exn "10.1.2.0") (P.first p);
  check_addr "last" (Ipv4.of_string_exn "10.1.3.255") (P.last p)

let test_subprefixes () =
  let p = P.of_string_exn "168.122.0.0/16" in
  let subs = P.subprefixes p 18 in
  Alcotest.(check int) "count" 4 (List.length subs);
  Alcotest.(check (list string))
    "order"
    [ "168.122.0.0/18"; "168.122.64.0/18"; "168.122.128.0/18"; "168.122.192.0/18" ]
    (List.map P.to_string subs);
  Alcotest.(check (list string)) "self" [ "168.122.0.0/16" ] (List.map P.to_string (P.subprefixes p 16))

let test_summarize () =
  let addr = Ipv4.of_string_exn in
  let strs lo hi = List.map P.to_string (P.summarize (addr lo) (addr hi)) in
  Alcotest.(check (list string)) "single address" [ "10.0.0.5/32" ] (strs "10.0.0.5" "10.0.0.5");
  Alcotest.(check (list string)) "aligned /24" [ "10.0.0.0/24" ] (strs "10.0.0.0" "10.0.0.255");
  Alcotest.(check (list string)) "whole space" [ "0.0.0.0/0" ] (strs "0.0.0.0" "255.255.255.255");
  Alcotest.(check (list string))
    "unaligned range"
    [ "10.0.0.1/32"; "10.0.0.2/31"; "10.0.0.4/30"; "10.0.0.8/29" ]
    (strs "10.0.0.1" "10.0.0.15");
  (match P.summarize (addr "10.0.0.2") (addr "10.0.0.1") with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty range accepted")

let prop_summarize_exact =
  QCheck2.Test.make ~name:"summarize covers exactly the range" ~count:300
    QCheck2.Gen.(pair (int_bound 0xffff) (int_bound 2000))
    (fun (lo16, span) ->
      (* Keep ranges small so membership checking stays cheap. *)
      let lo = (10 lsl 24) lor (lo16 lsl 8) in
      let hi = lo + span in
      let ps = P.summarize (Ipv4.of_int32_bits lo) (Ipv4.of_int32_bits hi) in
      (* Disjoint, sorted, and their sizes sum to the range size. *)
      let total =
        List.fold_left (fun acc q -> acc + (1 lsl (32 - P.length q))) 0 ps
      in
      let sorted =
        List.for_all2
          (fun a b -> Ipv4.to_int (P.last a) < Ipv4.to_int (P.first b))
          (List.filteri (fun i _ -> i < List.length ps - 1) ps)
          (List.tl ps)
      in
      total = span + 1
      && (List.length ps <= 1 || sorted)
      && Ipv4.to_int (P.first (List.hd ps)) = lo
      && Ipv4.to_int (P.last (List.nth ps (List.length ps - 1))) = hi)

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"ipv4 to_string/of_string roundtrip" ~count:500 Testutil.gen_ipv4
    (fun a -> Netaddr.Ipv4.equal a (Ipv4.of_string_exn (Ipv4.to_string a)))

let prop_prefix_roundtrip =
  QCheck2.Test.make ~name:"prefix to_string/of_string roundtrip" ~count:500 Testutil.gen_v4_prefix
    (fun p -> P.equal p (P.of_string_exn (P.to_string p)))

let prop_split_covers =
  QCheck2.Test.make ~name:"split halves partition the parent" ~count:500 Testutil.gen_v4_prefix
    (fun p ->
      match P.split p with
      | None -> P.length p = 32
      | Some (l, r) ->
        P.strict_subset l p && P.strict_subset r p && (not (P.subset l r))
        && P.length l = P.length p + 1)

let prop_bit_prefix_consistent =
  QCheck2.Test.make ~name:"prefix bits match network address bits" ~count:500
    Testutil.gen_v4_prefix (fun p ->
      let ok = ref true in
      for i = 0 to P.length p - 1 do
        if P.bit p i <> Netaddr.Ipv4.bit (P.network p) i then ok := false
      done;
      !ok)

let () =
  Alcotest.run "netaddr.ipv4"
    [ ( "address",
        [ Alcotest.test_case "of_string valid" `Quick test_of_string_valid;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "leading zeros" `Quick test_leading_zeros;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "bit access" `Quick test_bits;
          Alcotest.test_case "succ wraps" `Quick test_succ_wraps;
          Alcotest.test_case "compare is unsigned" `Quick test_compare_order ] );
      ( "prefix",
        [ Alcotest.test_case "parse" `Quick test_prefix_parse;
          Alcotest.test_case "mem" `Quick test_prefix_mem;
          Alcotest.test_case "subset" `Quick test_prefix_subset;
          Alcotest.test_case "split/parent/sibling" `Quick test_prefix_split_parent_sibling;
          Alcotest.test_case "first/last" `Quick test_prefix_first_last;
          Alcotest.test_case "subprefixes" `Quick test_subprefixes;
          Alcotest.test_case "summarize" `Quick test_summarize ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_string_roundtrip; prop_prefix_roundtrip; prop_split_covers;
            prop_bit_prefix_consistent; prop_summarize_exact ] ) ]
