(* Shared QCheck generators and Alcotest testables for the suite. *)

module Pfx = Netaddr.Pfx

let gen_ipv4 = QCheck2.Gen.map Netaddr.Ipv4.of_int32_bits (QCheck2.Gen.int_bound ((1 lsl 32) - 1))

let gen_ipv6 =
  QCheck2.Gen.map2
    (fun hi lo -> Netaddr.Ipv6.make (Int64.of_int hi) (Int64.of_int lo))
    QCheck2.Gen.int QCheck2.Gen.int

let gen_v4_prefix =
  QCheck2.Gen.map2
    (fun a l -> Netaddr.Ipv4.Prefix.make a l)
    gen_ipv4 (QCheck2.Gen.int_bound 32)

let gen_v6_prefix =
  QCheck2.Gen.map2
    (fun a l -> Netaddr.Ipv6.Prefix.make a l)
    gen_ipv6 (QCheck2.Gen.int_bound 128)

let gen_prefix =
  QCheck2.Gen.bind QCheck2.Gen.bool (fun v6 ->
      if v6 then QCheck2.Gen.map Pfx.v6 gen_v6_prefix else QCheck2.Gen.map Pfx.v4 gen_v4_prefix)

(* Short prefixes cluster collisions, which exercises trie structure
   and compression merges much harder than uniform /0-/32. *)
let gen_clustered_v4_prefix =
  let open QCheck2.Gen in
  let* len = int_range 8 24 in
  let* block = int_bound 15 in
  let* offset = int_bound ((1 lsl (len - 8)) - 1) in
  let addr = (block lsl 24) lor (offset lsl (32 - len)) in
  return (Pfx.v4 (Netaddr.Ipv4.Prefix.make (Netaddr.Ipv4.of_int32_bits addr) len))

let gen_asn = QCheck2.Gen.map Rpki.Asnum.of_int (QCheck2.Gen.int_bound 100_000)

let gen_small_asn = QCheck2.Gen.map Rpki.Asnum.of_int (QCheck2.Gen.int_range 1 8)

(* Clustered IPv6 prefixes under 2001:db8::/32, lengths 32-48. *)
let gen_clustered_v6_prefix =
  let open QCheck2.Gen in
  let* len = int_range 32 48 in
  let* offset = int_bound 0xffff in
  let base = Netaddr.Ipv6.of_string_exn "2001:db8::" in
  let hi = Int64.logor (Netaddr.Ipv6.high_bits base) (Int64.shift_left (Int64.of_int offset) 16) in
  return (Pfx.v6 (Netaddr.Ipv6.Prefix.make (Netaddr.Ipv6.make hi 0L) len))

let gen_clustered_prefix =
  QCheck2.Gen.(oneof [ gen_clustered_v4_prefix; gen_clustered_v4_prefix; gen_clustered_v6_prefix ])

let gen_vrp =
  let open QCheck2.Gen in
  let* p = gen_clustered_prefix in
  let* asn = gen_small_asn in
  let* extra = int_bound (min 8 (Pfx.addr_bits p - Pfx.length p)) in
  return (Rpki.Vrp.make_exn p ~max_len:(Pfx.length p + extra) asn)

let gen_vrp_list = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 60) gen_vrp

(* Alcotest testables *)
let ipv4 = Alcotest.testable Netaddr.Ipv4.pp Netaddr.Ipv4.equal
let ipv6 = Alcotest.testable Netaddr.Ipv6.pp Netaddr.Ipv6.equal
let prefix = Alcotest.testable Pfx.pp Pfx.equal
let vrp = Alcotest.testable Rpki.Vrp.pp Rpki.Vrp.equal
let roa = Alcotest.testable Rpki.Roa.pp Rpki.Roa.equal
let asn = Alcotest.testable Rpki.Asnum.pp Rpki.Asnum.equal

let validation_state =
  Alcotest.testable Rpki.Validation.pp_state (fun a b -> a = b)

let p4 = Pfx.of_string_exn
let a = Rpki.Asnum.of_int

let check_ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* Words allocated while [f] runs, with its result: a work witness
   that, unlike a wall clock, does not move with the host's load. The
   minor part comes from [Gc.minor_words]: on OCaml 5.1 the minor count
   in [Gc.counters] under-counts the words still in the minor heap, so
   it jumps whenever a minor collection falls inside the window. *)
let allocated_words f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* Words of heap reachable from [x], headers included: what a store
   holds live, independent of how much garbage its build left. *)
let live_words x = Obj.reachable_words (Obj.repr x)
