module Pfx = Netaddr.Pfx
module K = Pfx_key

(* Arena-backed VRP database: a {!Chains} store keyed by each entry's
   (max_len, asn) packed as [(max_len lsl 32) lor asn] — max_len <= 128
   and ASNs are 32-bit, so the pack fits far inside a 63-bit immediate
   and, crucially, the natural int order on packs is the (max_len, asn)
   lexicographic order [Vrp.compare] uses after the prefix. Chains are
   kept ascending by pack, so an in-order trie walk emitting chain
   order reproduces the canonical [Vrp.compare] order with no sorting.

   The RFC 6811 hot path ([validate]) is a manual loop over the store's
   columns: no closures, no options, no tuples — the [@@hot] marks are
   enforced by lint rule R7. *)

type handle = int
type t = Chains.t

let mask32 = 0xffff_ffff
let key ~max_len ~asn = (max_len lsl 32) lor asn
let create ?v4 ?v6 ?entries () = Chains.create ?v4 ?v6 ?entries ~name:"vrp_db" ()
let cardinal = Chains.cardinal
let add_unchecked t p ~max_len ~asn = Chains.prepend t p (key ~max_len ~asn)
let add t p ~max_len ~asn = Chains.add t p (key ~max_len ~asn)
let remove t p ~max_len ~asn = Chains.remove t p (key ~max_len ~asn)
let first = Chains.first
  [@@lint.test_only "witness: tests read a prefix's stored VRP entries"]
let next = Chains.next
  [@@lint.test_only "witness: tests read a prefix's stored VRP entries"]
let entry_max_len t h = Chains.key t ~op:"entry_max_len" h lsr 32
  [@@lint.test_only "witness: tests read a prefix's stored VRP entries"]
let entry_asn t h = Chains.key t ~op:"entry_asn" h land mask32
  [@@lint.test_only "witness: tests read a prefix's stored VRP entries"]
let self_check = Chains.self_check
  [@@lint.test_only "witness: the store audits its own invariants for the tests"]

(* Canonical order for free: the store's (family, prefix, key) order is
   [Vrp.compare]'s. *)
let fold_all t ~init ~f =
  Chains.fold_all t ~init ~f:(fun acc p k -> f acc p ~max_len:(k lsr 32) ~asn:(k land mask32))

(* --- RFC 6811 validate: one allocation-free descent ------------------ *)

(* Does some entry of this chain authorize (origin [asn], length [ql])?
   Entry ASNs equal to [asn] authorize when [ql] is within max_len;
   AS0 never authorizes (callers pass asn = 0 only when the origin
   itself is AS0, and then skip the scan entirely). *)
let rec chain_authorizes pack nxt e ql asn =
  e >= 0
  && ((Array.unsafe_get pack e land mask32 = asn && ql <= Array.unsafe_get pack e lsr 32)
     || chain_authorizes pack nxt (Array.unsafe_get nxt e) ql asn)
  [@@hot]

(* 0 = Valid, 1 = Invalid, 2 = NotFound. [found] tracks whether any
   covering VRP exists (the Invalid/NotFound split).

   Both descents take the trie columns as plain array arguments rather
   than re-reading the (mutable, growable) record fields at every
   level: the structure cannot change mid-query, so hoisting the loads
   out of the loop is sound and keeps the per-node work to a handful
   of array reads. The v4 variant exploits that an IPv4 key lives
   entirely in chunk 0 — its cover test is one xor+mask instead of
   four. *)
let rec validate_v4 c0a lena vala lefta righta pack nxt q0 ql asn n found =
  let nl = Array.unsafe_get lena n in
  if not (nl <= ql && (q0 lxor Array.unsafe_get c0a n) land K.hi_mask nl = 0) then
    if found then 1 else 2
  else begin
    let head = Array.unsafe_get vala n in
    let found = found || head >= 0 in
    if asn <> 0 && head >= 0 && chain_authorizes pack nxt head ql asn then 0
    else if nl >= ql then if found then 1 else 2
    else begin
      let c =
        if (q0 lsr (31 - nl)) land 1 = 1 then Array.unsafe_get righta n
        else Array.unsafe_get lefta n
      in
      if c < 0 then if found then 1 else 2
      else validate_v4 c0a lena vala lefta righta pack nxt q0 ql asn c found
    end
  end
  [@@hot]
  [@@lint.unsafe_idx_ok
    "n is Itrie.root or a child pointer checked non-negative before the recursive call; \
     live indices never exceed the hoisted columns' length"]

let rec validate_v6 c0a c1a c2a c3a lena vala lefta righta pack nxt q0 q1 q2 q3 ql asn n
    found =
  let nl = lena.(n) in
  if not (K.covers c0a.(n) c1a.(n) c2a.(n) c3a.(n) nl q0 q1 q2 q3 ql) then
    if found then 1 else 2
  else begin
    let head = vala.(n) in
    let found = found || head >= 0 in
    if asn <> 0 && head >= 0 && chain_authorizes pack nxt head ql asn then 0
    else if nl >= ql then if found then 1 else 2
    else begin
      let c = if K.bit q0 q1 q2 q3 nl then righta.(n) else lefta.(n) in
      if c < 0 then if found then 1 else 2
      else validate_v6 c0a c1a c2a c3a lena vala lefta righta pack nxt q0 q1 q2 q3 ql asn c
          found
    end
  end
  [@@hot]

let validate t p ~asn =
  match p with
  | Pfx.V4 _ ->
    let tr = t.Chains.v4 in
    validate_v4 tr.Itrie.c0 tr.Itrie.len tr.Itrie.value tr.Itrie.left tr.Itrie.right
      t.Chains.key t.Chains.nxt (K.c0 p) (Pfx.length p) asn Itrie.root false
  | Pfx.V6 _ ->
    let tr = t.Chains.v6 in
    validate_v6 tr.Itrie.c0 tr.Itrie.c1 tr.Itrie.c2 tr.Itrie.c3 tr.Itrie.len tr.Itrie.value
      tr.Itrie.left tr.Itrie.right t.Chains.key t.Chains.nxt (K.c0 p) (K.c1 p) (K.c2 p) (K.c3 p)
      (Pfx.length p) asn Itrie.root false
  [@@hot]

(* --- covering walks -------------------------------------------------- *)

(* The covering VRPs in canonical [Vrp.compare] order, built on the
   recursion's unwind: descent order is shortest-covering-prefix first
   — which within one family {e is} ascending prefix order — and each
   chain is ascending by (max_len, asn), so consing each node's chain
   onto the deeper tail yields the sorted list with exactly one cons
   (plus the caller's [make]) per element. *)
let covering_list t p ~make =
  let tr = Chains.trie_for t p in
  let q0 = K.c0 p and q1 = K.c1 p and q2 = K.c2 p and q3 = K.c3 p in
  let ql = Pfx.length p in
  let pack = t.Chains.key and nxt = t.Chains.nxt in
  let rec chain pfx e tail =
    if e < 0 then tail
    else
      make pfx ~max_len:(pack.(e) lsr 32) ~asn:(pack.(e) land mask32)
      :: chain pfx nxt.(e) tail
  in
  let rec go n =
    if not (Itrie.node_covers tr n ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql) then []
    else begin
      let tail =
        let nl = tr.Itrie.len.(n) in
        if nl >= ql then []
        else begin
          let c = if K.bit q0 q1 q2 q3 nl then tr.Itrie.right.(n) else tr.Itrie.left.(n) in
          if c < 0 then [] else go c
        end
      in
      let head = tr.Itrie.value.(n) in
      if head >= 0 then chain (Itrie.prefix_at tr n) head tail else tail
    end
  in
  go Itrie.root
