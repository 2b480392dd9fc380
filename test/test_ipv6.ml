(* The address operations only these tests use live here, beside the
   library's own. *)
module Ipv6 = struct
  include Netaddr.Ipv6

  let of_string_exn s = match of_string s with Ok a -> a | Error e -> invalid_arg e
end

module P = struct
  include Netaddr.Ipv6.Prefix

  let of_string_exn s = match of_string s with Ok p -> p | Error e -> invalid_arg e
  let mem a p = subset (make a Ipv6.bits) p

  let sibling p =
    if length p = 0 then None
    else
      Option.map
        (fun (l, r) -> if equal l p then r else l)
        (split (truncate p (length p - 1)))
end

let check_addr = Alcotest.check Testutil.ipv6

let test_parse_forms () =
  List.iter
    (fun (input, canonical) ->
      Alcotest.(check string) input canonical (Ipv6.to_string (Ipv6.of_string_exn input)))
    [ ("::", "::");
      ("::1", "::1");
      ("1::", "1::");
      ("2001:db8::1", "2001:db8::1");
      ("2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1");
      ("2001:DB8::A", "2001:db8::a");
      ("fe80:0:0:0:1:0:0:1", "fe80::1:0:0:1");
      ("1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8");
      ("::ffff:192.0.2.1", "::ffff:c000:201");
      ("64:ff9b::1.2.3.4", "64:ff9b::102:304");
      ("0:0:0:0:0:0:0:0", "::") ]

let test_parse_invalid () =
  List.iter
    (fun s ->
      match Ipv6.of_string s with
      | Ok _ -> Alcotest.failf "accepted invalid address %S" s
      | Error _ -> ())
    [ ""; ":"; ":::"; "1::2::3"; "1:2:3:4:5:6:7"; "1:2:3:4:5:6:7:8:9"; "12345::";
      "g::1"; "1:2:3:4:5:6:7:8::"; "::1.2.3.256"; "1.2.3.4"; "2001:db8:::1" ]

let test_rfc5952_longest_run () =
  (* Compress the longest zero run; leftmost on tie; never a lone
     zero group. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Ipv6.to_string (Ipv6.of_string_exn input)))
    [ ("2001:0:0:1:0:0:0:1", "2001:0:0:1::1");
      ("2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1");
      ("1:0:0:2:0:0:3:4", "1::2:0:0:3:4") ]

let test_groups () =
  let a = Ipv6.of_groups [| 0x2001; 0xdb8; 0; 0; 0; 0; 0; 1 |] in
  check_addr "of_groups" (Ipv6.of_string_exn "2001:db8::1") a;
  Alcotest.(check (array int)) "to_groups" [| 0x2001; 0xdb8; 0; 0; 0; 0; 0; 1 |] (Ipv6.to_groups a)

let test_bits () =
  let a = Ipv6.of_string_exn "8000::1" in
  Alcotest.(check bool) "msb" true (Ipv6.bit a 0);
  Alcotest.(check bool) "bit 1" false (Ipv6.bit a 1);
  Alcotest.(check bool) "lsb" true (Ipv6.bit a 127);
  Alcotest.(check bool) "bit 64" false (Ipv6.bit a 64);
  let b = Ipv6.set_bit Ipv6.zero 64 true in
  check_addr "set bit 64" (Ipv6.of_string_exn "0:0:0:0:8000::") b

let pfx = Alcotest.testable P.pp P.equal

let test_prefix_basics () =
  let p = Testutil.check_ok (P.of_string "2001:db8::/32") in
  Alcotest.(check int) "length" 32 (P.length p);
  Alcotest.(check bool) "mem" true (P.mem (Ipv6.of_string_exn "2001:db8::42") p);
  Alcotest.(check bool) "not mem" false (P.mem (Ipv6.of_string_exn "2001:db9::") p);
  (match P.of_string "2001:db8::1/32" with
   | Ok _ -> Alcotest.fail "accepted host bits"
   | Error _ -> ());
  (match P.split p with
   | Some (l, r) ->
     Alcotest.check pfx "left" (P.of_string_exn "2001:db8::/33") l;
     Alcotest.check pfx "right" (P.of_string_exn "2001:db8:8000::/33") r
   | None -> Alcotest.fail "split failed");
  Alcotest.(check bool) "no split /128" true (P.split (P.of_string_exn "::1/128") = None)

let test_prefix_cross_word_boundary () =
  (* Splitting at the 64-bit word boundary exercises the hi/lo split. *)
  let p = P.of_string_exn "2001:db8:0:1::/64" in
  match P.split p with
  | Some (l, r) ->
    Alcotest.check pfx "left" (P.of_string_exn "2001:db8:0:1::/65") l;
    Alcotest.check pfx "right" (P.of_string_exn "2001:db8:0:1:8000::/65") r;
    Alcotest.check pfx "sibling" r (Option.get (P.sibling l))
  | None -> Alcotest.fail "split failed"

let test_subprefixes () =
  let p = P.of_string_exn "2001:db8::/32" in
  let subs = P.subprefixes p 34 in
  Alcotest.(check int) "count" 4 (List.length subs);
  Alcotest.(check string) "first" "2001:db8::/34" (P.to_string (List.hd subs));
  (match P.subprefixes p 60 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "unbounded enumeration accepted")

let test_unsigned_order () =
  (* Addresses with the top bit set live in the Int64-negative range of
     the hi word.  The ordering must stay unsigned — a polymorphic (or
     otherwise signed) comparison would sort 8000:: and above BEFORE the
     low half of the address space.  Regression for the ordering
     guarantee [addr_compare] pins down in ipv6.ml. *)
  let lt a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s < %s" a b)
      true
      (Ipv6.compare (Ipv6.of_string_exn a) (Ipv6.of_string_exn b) < 0)
  in
  lt "::1" "8000::";
  lt "::1" "ffff::1";
  lt "7fff:ffff:ffff:ffff:ffff:ffff:ffff:ffff" "8000::";
  lt "8000::" "c000::";
  lt "c000::" "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff";
  (* Same hi word (itself negative as an Int64), ordering decided by a
     high-bit lo word. *)
  lt "ffff::1" "ffff::8000:0:0:1";
  Alcotest.(check int) "equal addresses" 0
    (Ipv6.compare (Ipv6.of_string_exn "8000::1") (Ipv6.of_string_exn "8000::1"))

let test_prefix_unsigned_order () =
  let plt a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s < %s" a b)
      true
      (P.compare (P.of_string_exn a) (P.of_string_exn b) < 0)
  in
  plt "::/1" "8000::/1";
  plt "2001:db8::/32" "8000::/1";
  plt "7fff::/16" "8000::/16";
  (* A signed comparison would also corrupt Pfx.Set ordering: the
     minimum element must come from the low half. *)
  let module Pfx = Netaddr.Pfx in
  let s =
    Pfx.Set.of_list
      (List.map
         (fun x -> Testutil.check_ok (Pfx.of_string x))
         [ "8000::/1"; "c000::/2"; "2001:db8::/32"; "::1/128" ])
  in
  Alcotest.(check string) "set minimum is the low prefix" "::1/128"
    (Pfx.to_string (Pfx.Set.min_elt s));
  (* And aggregation must recognise high-half siblings: 8000::/2 and
     c000::/2 merge into 8000::/1. *)
  let merged =
    Testutil.aggregate
      (List.map (fun x -> Testutil.check_ok (Pfx.of_string x)) [ "8000::/2"; "c000::/2" ])
  in
  Alcotest.(check (list string)) "high-half siblings aggregate" [ "8000::/1" ]
    (List.map Pfx.to_string merged)

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"ipv6 to_string/of_string roundtrip" ~count:500 Testutil.gen_ipv6
    (fun a -> Netaddr.Ipv6.equal a (Ipv6.of_string_exn (Ipv6.to_string a)))

let prop_groups_roundtrip =
  QCheck2.Test.make ~name:"groups roundtrip" ~count:500 Testutil.gen_ipv6 (fun a ->
      Netaddr.Ipv6.equal a (Ipv6.of_groups (Ipv6.to_groups a)))

let prop_prefix_roundtrip =
  QCheck2.Test.make ~name:"ipv6 prefix roundtrip" ~count:500 Testutil.gen_v6_prefix (fun p ->
      P.equal p (P.of_string_exn (P.to_string p)))

let prop_mask_canonical =
  QCheck2.Test.make ~name:"make masks host bits" ~count:500
    QCheck2.Gen.(pair Testutil.gen_ipv6 (int_bound 128))
    (fun (a, l) ->
      let p = P.make a l in
      P.mem a p && P.length p = l)

let () =
  Alcotest.run "netaddr.ipv6"
    [ ( "address",
        [ Alcotest.test_case "parse forms" `Quick test_parse_forms;
          Alcotest.test_case "parse invalid" `Quick test_parse_invalid;
          Alcotest.test_case "rfc5952 zero-run" `Quick test_rfc5952_longest_run;
          Alcotest.test_case "groups" `Quick test_groups;
          Alcotest.test_case "bits" `Quick test_bits ] );
      ( "prefix",
        [ Alcotest.test_case "basics" `Quick test_prefix_basics;
          Alcotest.test_case "64-bit boundary" `Quick test_prefix_cross_word_boundary;
          Alcotest.test_case "subprefixes" `Quick test_subprefixes ] );
      ( "ordering",
        [ Alcotest.test_case "addresses order unsigned" `Quick test_unsigned_order;
          Alcotest.test_case "prefixes order unsigned" `Quick test_prefix_unsigned_order ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_string_roundtrip; prop_groups_roundtrip; prop_prefix_roundtrip;
            prop_mask_canonical ] ) ]
