module Pfx = Netaddr.Pfx

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

(* --- whole-table walks ----------------------------------------------- *)

(* Some chain in [stack.(0) .. stack.(d - 1)] — the origin chains of a
   node's bound ancestors, nearest last — holds [asn]. *)
let rec on_stack o_asn o_nxt stack d asn =
  d > 0 && (chain_mem o_asn o_nxt stack.(d - 1) asn || on_stack o_asn o_nxt stack (d - 1) asn)
  [@@hot]

(* [acc] plus the entries of the chain from [e] whose origin no
   ancestor chain holds. *)
let rec roots_in o_asn o_nxt stack d e acc =
  if e < 0 then acc
  else
    roots_in o_asn o_nxt stack d o_nxt.(e)
      (if on_stack o_asn o_nxt stack d o_asn.(e) then acc else acc + 1)
  [@@hot]

(* Pre-order: a bound node counts its roots against the [d] chains
   above it, then pushes its own chain head for its subtree. A child
   only writes the slots past its parent's, so each slot holds the
   chain of the current path's ancestor at that depth. *)
let rec root_count_go vala lefta righta o_asn o_nxt stack n d acc =
  let head = vala.(n) in
  if head < 0 then root_count_kids vala lefta righta o_asn o_nxt stack n d acc
  else begin
    let acc = roots_in o_asn o_nxt stack d head acc in
    stack.(d) <- head;
    root_count_kids vala lefta righta o_asn o_nxt stack n (d + 1) acc
  end
  [@@hot]

and root_count_kids vala lefta righta o_asn o_nxt stack n d acc =
  let l = lefta.(n) in
  let acc = if l >= 0 then root_count_go vala lefta righta o_asn o_nxt stack l d acc else acc in
  let r = righta.(n) in
  if r >= 0 then root_count_go vala lefta righta o_asn o_nxt stack r d acc else acc
  [@@hot]

(* A path holds at most one bound node per length: 33 in a v4 trie,
   129 in a v6 trie. *)
let stack_for (tr : Itrie.t) =
  Array.make (match Itrie.afi tr with Pfx.Afi_v4 -> 33 | Pfx.Afi_v6 -> 129) (-1)

let root_count t =
  let count (tr : Itrie.t) =
    root_count_go tr.Itrie.value tr.Itrie.left tr.Itrie.right t.Chains.key t.Chains.nxt
      (stack_for tr) Itrie.root 0 0
  in
  count t.Chains.v4 + count t.Chains.v6

type marks = Bytes.t

let marks t = Bytes.make t.Chains.used '\000'

(* The entry of the chain from [e] holding [asn], or -1. Chains
   ascend, so the scan stops at the first larger origin. *)
let rec chain_find o_asn o_nxt e asn =
  if e < 0 then -1
  else if o_asn.(e) = asn then e
  else if o_asn.(e) > asn then -1
  else chain_find o_asn o_nxt o_nxt.(e) asn
  [@@hot]

(* Children are strictly longer than their parent, so the [max_len]
   bound prunes whole subtrees. *)
let rec mark_go lena vala lefta righta o_asn o_nxt marks asn max_len n =
  if lena.(n) <= max_len then begin
    let e = chain_find o_asn o_nxt vala.(n) asn in
    if e >= 0 then Bytes.set marks e '\001';
    let l = lefta.(n) in
    if l >= 0 then mark_go lena vala lefta righta o_asn o_nxt marks asn max_len l;
    let r = righta.(n) in
    if r >= 0 then mark_go lena vala lefta righta o_asn o_nxt marks asn max_len r
  end
  [@@hot]

let mark_under t marks p ~asn ~max_len =
  let tr = Chains.trie_for t p in
  let n = Itrie.subtree_root tr p in
  if n >= 0 then
    mark_go tr.Itrie.len tr.Itrie.value tr.Itrie.left tr.Itrie.right t.Chains.key t.Chains.nxt
      marks asn max_len (Itrie.live_index tr n)
  [@@hot]

let rec count_set marks i acc =
  if i < 0 then acc
  else count_set marks (i - 1) (if Bytes.get marks i = '\000' then acc else acc + 1)
  [@@hot]

let marked marks = count_set marks (Bytes.length marks - 1) 0 [@@hot]

type selection = All | Roots | Marked of marks

(* One walk per family on the unwind: the right subtree's list, then
   the left subtree's consed in front of it, then the node's kept
   entries in front of that, which yields {!fold_all} order with one
   cons per kept pair and one boxed prefix per node that keeps any.
   [Roots] pushes each bound node's chain head on the way down, as
   {!root_count} does; a node's own entries are judged on the way back
   up, against the [d] slots its subtree never writes. *)
let to_list t sel ~make =
  let o_asn = t.Chains.key and o_nxt = t.Chains.nxt in
  let per_trie (tr : Itrie.t) tail =
    let stack = match sel with Roots -> stack_for tr | All | Marked _ -> [||] in
    let keep d e =
      match sel with
      | All -> true
      | Roots -> not (on_stack o_asn o_nxt stack d o_asn.(e))
      | Marked m -> Bytes.get m e <> '\000'
    in
    let rec first_kept d e = if e < 0 || keep d e then e else first_kept d o_nxt.(e) in
    (* [e] is kept *)
    let rec chain pfx d e tail =
      let rest =
        let e' = first_kept d o_nxt.(e) in
        if e' < 0 then tail else chain pfx d e' tail
      in
      make pfx o_asn.(e) :: rest
    in
    let rec go n d tail =
      let head = tr.Itrie.value.(n) in
      let below =
        match sel with
        | Roots when head >= 0 ->
          stack.(d) <- head;
          d + 1
        | All | Roots | Marked _ -> d
      in
      let tail =
        let r = tr.Itrie.right.(n) in
        if r >= 0 then go r below tail else tail
      in
      let tail =
        let l = tr.Itrie.left.(n) in
        if l >= 0 then go l below tail else tail
      in
      let e = if head < 0 then -1 else first_kept d head in
      if e < 0 then tail else chain (Itrie.prefix_at tr n) d e tail
    in
    go Itrie.root 0 tail
  in
  per_trie t.Chains.v4 (per_trie t.Chains.v6 [])
