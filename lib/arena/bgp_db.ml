module Pfx = Netaddr.Pfx
module K = Pfx_key

(* Arena-backed BGP table: announced (prefix, origin AS) pairs as a
   {!Chains} store keyed by the origin ASN (a plain int). Chains are
   kept ascending by ASN — the same order [Asnum.Set] iteration gave
   the record-backed table, so folds are bit-identical to the
   oracle. *)

type handle = int
type t = Chains.t

let create ?v4 ?v6 ?entries () = Chains.create ?v4 ?v6 ?entries ~name:"bgp_db" ()
let cardinal = Chains.cardinal
let add t p ~asn = ignore (Chains.add t p asn)
let remove t p ~asn = Chains.remove t p asn
let first = Chains.first
let next = Chains.next
let origin t h = Chains.key t ~op:"origin" h
let fold_all = Chains.fold_all
let self_check = Chains.self_check

(* --- hot queries ----------------------------------------------------- *)

(* Ascending chains: stop as soon as the entry ASN passes the probe. *)
let rec chain_mem o_asn o_nxt e asn =
  e >= 0
  && (Array.unsafe_get o_asn e = asn
     || (Array.unsafe_get o_asn e < asn && chain_mem o_asn o_nxt (Array.unsafe_get o_nxt e) asn))
  [@@hot]

let mem t p ~asn =
  let tr = Chains.trie_for t p in
  let n = Itrie.find tr p in
  n >= 0 && chain_mem t.Chains.key t.Chains.nxt (Itrie.value tr n) asn
  [@@hot]

(* Strict same-origin ancestor: a covering node shorter than the query
   whose chain holds [asn]. One descent, no allocation. The columns
   are hoisted into arguments (the structure cannot change mid-query)
   and the v4 variant collapses the cover test to one xor+mask — an
   IPv4 key lives entirely in chunk 0. *)
let rec ancestor_v4 c0a lena vala lefta righta o_asn o_nxt q0 ql asn n =
  let nl = Array.unsafe_get lena n in
  nl < ql
  && (q0 lxor Array.unsafe_get c0a n) land K.hi_mask nl = 0
  && ((Array.unsafe_get vala n >= 0 && chain_mem o_asn o_nxt (Array.unsafe_get vala n) asn)
     ||
     let c =
       if (q0 lsr (31 - nl)) land 1 = 1 then Array.unsafe_get righta n
       else Array.unsafe_get lefta n
     in
     c >= 0 && ancestor_v4 c0a lena vala lefta righta o_asn o_nxt q0 ql asn c)
  [@@hot]
  [@@lint.unsafe_idx_ok
    "n is Itrie.root or a child pointer checked non-negative before the recursive call; \
     live indices never exceed the hoisted columns' length"]

let rec ancestor_v6 c0a c1a c2a c3a lena vala lefta righta o_asn o_nxt q0 q1 q2 q3 ql asn n =
  let nl = lena.(n) in
  nl < ql
  && K.covers c0a.(n) c1a.(n) c2a.(n) c3a.(n) nl q0 q1 q2 q3 ql
  && ((vala.(n) >= 0 && chain_mem o_asn o_nxt vala.(n) asn)
     ||
     let c = if K.bit q0 q1 q2 q3 nl then righta.(n) else lefta.(n) in
     c >= 0
     && ancestor_v6 c0a c1a c2a c3a lena vala lefta righta o_asn o_nxt q0 q1 q2 q3 ql asn c)
  [@@hot]

let has_same_origin_ancestor t p ~asn =
  match p with
  | Pfx.V4 _ ->
    let tr = t.Chains.v4 in
    ancestor_v4 tr.Itrie.c0 tr.Itrie.len tr.Itrie.value tr.Itrie.left tr.Itrie.right t.Chains.key
      t.Chains.nxt (K.c0 p) (Pfx.length p) asn Itrie.root
  | Pfx.V6 _ ->
    let tr = t.Chains.v6 in
    ancestor_v6 tr.Itrie.c0 tr.Itrie.c1 tr.Itrie.c2 tr.Itrie.c3 tr.Itrie.len tr.Itrie.value
      tr.Itrie.left tr.Itrie.right t.Chains.key t.Chains.nxt (K.c0 p) (K.c1 p) (K.c2 p) (K.c3 p)
      (Pfx.length p) asn Itrie.root
  [@@hot]

(* Per-length census of [asn]'s announcements under a subtree root,
   accumulated straight into the caller's array. Children are strictly
   longer than their parent, so the [max_len] bound prunes whole
   subtrees. *)
let rec count_go (tr : Itrie.t) o_asn o_nxt asn base max_len counts n =
  if tr.Itrie.len.(n) <= max_len then begin
    if tr.Itrie.value.(n) >= 0 && chain_mem o_asn o_nxt tr.Itrie.value.(n) asn then begin
      let i = tr.Itrie.len.(n) - base in
      counts.(i) <- counts.(i) + 1
    end;
    let l = tr.Itrie.left.(n) in
    if l >= 0 then count_go tr o_asn o_nxt asn base max_len counts l;
    let r = tr.Itrie.right.(n) in
    if r >= 0 then count_go tr o_asn o_nxt asn base max_len counts r
  end
  [@@hot]

let count_into t p ~asn ~base ~max_len counts =
  let tr = Chains.trie_for t p in
  let n = Itrie.subtree_root tr p in
  if n >= 0 then
    count_go tr t.Chains.key t.Chains.nxt asn base max_len counts (Itrie.live_index tr n)
  [@@hot]

(* Level [i] below the prefix is complete when it holds 2^i announced
   subprefixes (capped so the shift cannot overflow; such counts are
   unreachable in practice). Bails at the first hole. *)
let rec levels_complete counts n i =
  i >= n || (counts.(i) = 1 lsl min i 30 && levels_complete counts n (i + 1))
  [@@hot]

let fully_announced t p ~asn ~max_len =
  let base = Pfx.length p in
  if max_len < base then invalid_arg "Bgp_db.fully_announced: max_len below prefix";
  let counts = Array.make (max_len - base + 1) 0 in
  count_into t p ~asn ~base ~max_len counts;
  levels_complete counts (Array.length counts) 0

(* --- views ----------------------------------------------------------- *)

(* [asn]'s announcements covered by [p], in-order, as
   [make prefix length] — built on the unwind, one cons per hit. *)
let under_list t p ~asn ~make =
  let tr = Chains.trie_for t p in
  let o_asn = t.Chains.key and o_nxt = t.Chains.nxt in
  let rec go n tail =
    let tail =
      let r = tr.Itrie.right.(n) in
      if r >= 0 then go r tail else tail
    in
    let tail =
      let l = tr.Itrie.left.(n) in
      if l >= 0 then go l tail else tail
    in
    let head = tr.Itrie.value.(n) in
    if head >= 0 && chain_mem o_asn o_nxt head asn then
      make (Itrie.prefix_at tr n) tr.Itrie.len.(n) :: tail
    else tail
  in
  let n = Itrie.subtree_root tr p in
  if n < 0 then [] else go (Itrie.live_index tr n) []

(* Every announced pair covered by [p], whatever the origin — the
   revalidation frontier of a VRP add/remove: exactly these pairs'
   RFC 6811 state can change. In-order, origins ascending. *)
let fold_under t p ~init ~f =
  let tr = Chains.trie_for t p in
  let o_asn = t.Chains.key and o_nxt = t.Chains.nxt in
  let rec go n acc =
    let acc =
      let head = tr.Itrie.value.(n) in
      if head < 0 then acc
      else begin
        let pfx = Itrie.prefix_at tr n in
        let rec chain acc e = if e < 0 then acc else chain (f acc pfx o_asn.(e)) o_nxt.(e) in
        chain acc head
      end
    in
    let acc =
      let l = tr.Itrie.left.(n) in
      if l >= 0 then go l acc else acc
    in
    let r = tr.Itrie.right.(n) in
    if r >= 0 then go r acc else acc
  in
  let n = Itrie.subtree_root tr p in
  if n < 0 then init else go (Itrie.live_index tr n) init
