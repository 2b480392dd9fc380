module Pfx = Netaddr.Pfx
module K = Pfx_key

(* Arena-backed VRP database: one {!Itrie} per family plus two entry
   columns. A bound trie node's [value] is the head of a singly-linked
   chain of entries for that exact prefix:

   - [pack]  the entry's (max_len, asn) packed as
             [(max_len lsl 32) lor asn] — max_len <= 128 and ASNs are
             32-bit, so the pack fits far inside a 63-bit immediate
             and, crucially, the natural int order on packs is the
             (max_len, asn) lexicographic order [Vrp.compare] uses
             after the prefix;
   - [nxt]   the next entry, or -1.

   Chains are kept sorted ascending by pack, so an in-order trie walk
   emitting chain order reproduces the canonical [Vrp.compare] order
   with no sorting. Freed entries go on a freelist threaded through
   [nxt] with [pack] = -1.

   The RFC 6811 hot path ([validate]) is a manual loop over these
   columns: no closures, no options, no tuples — the [@@hot] marks are
   enforced by lint rule R7. *)

type handle = int

type t = {
  v4 : Itrie.t;
  v6 : Itrie.t;
  mutable pack : int array;
  mutable nxt : int array;
  mutable e_gen : int array;
  mutable e_used : int;
  mutable e_free : int;
  mutable count : int;
  san : bool;
}

let mask32 = 0xffff_ffff

let create ?(capacity = 64) () =
  let cap = if capacity < 8 then 8 else capacity in
  {
    v4 = Itrie.create ~capacity:cap ~name:"vrp_db.v4" Pfx.Afi_v4;
    v6 = Itrie.create ~capacity:cap ~name:"vrp_db.v6" Pfx.Afi_v6;
    pack = Array.make cap (-1);
    nxt = Array.make cap (-1);
    e_gen = Array.make cap 0;
    e_used = 0;
    e_free = -1;
    count = 0;
    san = San.enabled ();
  }

let cardinal t = t.count
let trie_for t p = match Pfx.afi p with Pfx.Afi_v4 -> t.v4 | Pfx.Afi_v6 -> t.v6

let grow_entries t =
  let cap = Array.length t.pack in
  let ncap = cap * 2 in
  let extend fill a =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.pack <- extend (-1) t.pack;
  t.nxt <- extend (-1) t.nxt;
  t.e_gen <- extend 0 t.e_gen

let alloc_entry t ~pack ~next =
  let i =
    if t.e_free >= 0 then begin
      let i = t.e_free in
      t.e_free <- t.nxt.(i);
      i
    end
    else begin
      if t.e_used >= Array.length t.pack then grow_entries t;
      let i = t.e_used in
      t.e_used <- t.e_used + 1;
      i
    end
  in
  t.pack.(i) <- pack;
  t.nxt.(i) <- next;
  i

let free_entry t e =
  t.pack.(e) <- -1;
  t.nxt.(e) <- t.e_free;
  t.e_free <- e;
  if t.san then t.e_gen.(e) <- t.e_gen.(e) + 1

(* --- sanitized entry handles ----------------------------------------- *)

(* Same discipline as {!Itrie}: a public entry handle is a bare index
   in normal mode and [(gen + 1) lsl 32 lor index] in sanitized mode;
   internal chain walks keep using raw indices (decoded with the tag
   bits at zero, so they get bounds/liveness checks only). *)
let e_tag t e = if t.san && e >= 0 then ((t.e_gen.(e) + 1) lsl 32) lor e else e

let e_stale t ~op h i g =
  San.fail ~store:"vrp_db" ~op ~handle:h
    (Printf.sprintf "stale generation %d; entry %d is now at generation %d (slot recycled after remove)"
       (g - 1) i t.e_gen.(i))
  [@@lint.alloc_ok] [@@lint.raise_ok]

let e_live t ~op h =
  if not t.san then h
  else begin
    let i = h land mask32 in
    let g = h lsr 32 in
    if h < 0 || i >= t.e_used then
      San.fail ~store:"vrp_db" ~op ~handle:h "entry index out of bounds (alien handle?)"
    else if t.pack.(i) < 0 then
      San.fail ~store:"vrp_db" ~op ~handle:h "use-after-free: entry is on the freelist"
    else if g <> 0 && g - 1 <> t.e_gen.(i) then e_stale t ~op h i g
    else i
  end

(* Build-path insertion: no duplicate scan, unconditional prepend. The
   caller feeds distinct tuples in descending canonical order (see
   [Validation.create]), so every chain ends up ascending by pack with
   O(1) work per tuple — this replaces the old per-insert linear
   duplicate scan. *)
let add_unchecked t p ~max_len ~asn =
  let tr = trie_for t p in
  let n = Itrie.probe tr p in
  let head = Itrie.value tr n in
  let e = alloc_entry t ~pack:((max_len lsl 32) lor asn) ~next:head in
  Itrie.set_value tr n e;
  t.count <- t.count + 1

(* Dynamic insertion: keep the chain sorted, refuse duplicates. *)
let add t p ~max_len ~asn =
  let tr = trie_for t p in
  let n = Itrie.probe tr p in
  let pk = (max_len lsl 32) lor asn in
  let head = Itrie.value tr n in
  let added =
    if head < 0 then begin
      let e = alloc_entry t ~pack:pk ~next:(-1) in
      Itrie.set_value tr n e;
      true
    end
    else if t.pack.(head) = pk then false
    else if pk < t.pack.(head) then begin
      let e = alloc_entry t ~pack:pk ~next:head in
      Itrie.set_value tr n e;
      true
    end
    else begin
      let rec ins e =
        let nx = t.nxt.(e) in
        if nx < 0 then begin
          let fresh = alloc_entry t ~pack:pk ~next:(-1) in
          t.nxt.(e) <- fresh;
          true
        end
        else if t.pack.(nx) = pk then false
        else if t.pack.(nx) > pk then begin
          let fresh = alloc_entry t ~pack:pk ~next:nx in
          t.nxt.(e) <- fresh;
          true
        end
        else ins nx
      in
      ins head
    end
  in
  if added then t.count <- t.count + 1;
  added

let remove t p ~max_len ~asn =
  let tr = trie_for t p in
  let n = Itrie.find tr p in
  if n < 0 || Itrie.value tr n < 0 then false
  else begin
    let head = Itrie.value tr n in
    let pk = (max_len lsl 32) lor asn in
    let removed =
      if t.pack.(head) = pk then begin
        let rest = t.nxt.(head) in
        free_entry t head;
        if rest < 0 then ignore (Itrie.remove tr p) else Itrie.set_value tr n rest;
        true
      end
      else begin
        let rec unlink e =
          let nx = t.nxt.(e) in
          if nx < 0 then false
          else if t.pack.(nx) = pk then begin
            t.nxt.(e) <- t.nxt.(nx);
            free_entry t nx;
            true
          end
          else unlink nx
        in
        unlink head
      end
    in
    if removed then t.count <- t.count - 1;
    removed
  end

(* --- public entry-chain cursor --------------------------------------- *)

let first t p =
  let tr = trie_for t p in
  let n = Itrie.find tr p in
  if n < 0 then -1
  else begin
    let head = Itrie.value tr n in
    if head < 0 then -1 else e_tag t head
  end

let next t h =
  let nx = t.nxt.(e_live t ~op:"next" h) in
  if nx < 0 then -1 else e_tag t nx

let entry_max_len t h = t.pack.(e_live t ~op:"entry_max_len" h) lsr 32
let entry_asn t h = t.pack.(e_live t ~op:"entry_asn" h) land mask32

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
    let tr = t.v4 in
    validate_v4 tr.Itrie.c0 tr.Itrie.len tr.Itrie.value tr.Itrie.left tr.Itrie.right t.pack
      t.nxt (K.c0 p) (Pfx.length p) asn Itrie.root false
  | Pfx.V6 _ ->
    let tr = t.v6 in
    validate_v6 tr.Itrie.c0 tr.Itrie.c1 tr.Itrie.c2 tr.Itrie.c3 tr.Itrie.len tr.Itrie.value
      tr.Itrie.left tr.Itrie.right t.pack t.nxt (K.c0 p) (K.c1 p) (K.c2 p) (K.c3 p)
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
  let tr = trie_for t p in
  let q0 = K.c0 p and q1 = K.c1 p and q2 = K.c2 p and q3 = K.c3 p in
  let ql = Pfx.length p in
  let pack = t.pack and nxt = t.nxt in
  let rec chain pfx e tail =
    if e < 0 then tail
    else
      make pfx ~max_len:(pack.(e) lsr 32) ~asn:(pack.(e) land mask32)
      :: chain pfx nxt.(e) tail
  in
  let rec go n =
    if not (K.covers tr.Itrie.c0.(n) tr.Itrie.c1.(n) tr.Itrie.c2.(n) tr.Itrie.c3.(n)
              tr.Itrie.len.(n) q0 q1 q2 q3 ql)
    then []
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

(* --- whole-database view --------------------------------------------- *)

(* Canonical order for free: v4 before v6 ([Pfx.compare] families),
   in-order per trie, ascending per chain. *)
let fold_all t ~init ~f =
  let per_trie tr acc =
    Itrie.fold_bound tr ~init:acc ~f:(fun acc n ->
        let pfx = Itrie.prefix_at tr n in
        let rec chain acc e =
          if e < 0 then acc
          else
            chain (f acc pfx ~max_len:(t.pack.(e) lsr 32) ~asn:(t.pack.(e) land mask32))
              t.nxt.(e)
        in
        chain acc (Itrie.value tr n))
  in
  per_trie t.v6 (per_trie t.v4 init)

(* --- invariant audit -------------------------------------------------- *)

(* The delta-API counterpart of {!Itrie.self_check}: after auditing
   both tries, walk every entry chain and the freelist and check they
   partition the allocated slots — chains strictly ascending by pack,
   freed slots marked, nothing reachable twice, [count] equal to the
   chain census. *)
let self_check t =
  match Itrie.self_check t.v4 with
  | Error _ as e -> e
  | Ok () ->
    match Itrie.self_check t.v6 with
    | Error _ as e -> e
    | Ok () ->
      let exception Bad of string in
      let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
      (try
         let seen = Array.make (max 1 t.e_used) false in
         let live = ref 0 in
         let walk tr =
           Itrie.fold_bound tr ~init:() ~f:(fun () n ->
               let rec go prev e =
                 if e >= 0 then begin
                   if e >= t.e_used then bad "entry %d out of bounds (used %d)" e t.e_used;
                   if seen.(e) then bad "entry %d reachable from two chains" e;
                   seen.(e) <- true;
                   if t.pack.(e) < 0 then bad "freed entry %d linked on a live chain" e;
                   if prev >= 0 && t.pack.(prev) >= t.pack.(e) then
                     bad "chain not strictly ascending at entry %d" e;
                   incr live;
                   go e t.nxt.(e)
                 end
               in
               go (-1) (Itrie.value tr n))
         in
         walk t.v4;
         walk t.v6;
         if !live <> t.count then bad "count %d but chain census %d" t.count !live;
         let free = ref 0 in
         let rec fgo e =
           if e >= 0 then begin
             if e >= t.e_used then bad "freelist entry %d out of bounds" e;
             if seen.(e) then bad "freelist entry %d aliases a live chain (or a cycle)" e;
             seen.(e) <- true;
             if t.pack.(e) >= 0 then bad "freelist entry %d not marked free" e;
             incr free;
             fgo t.nxt.(e)
           end
         in
         fgo t.e_free;
         if !live + !free <> t.e_used then
           bad "leaked entry slots: %d live + %d free <> %d used" !live !free t.e_used;
         Ok ()
       with Bad msg -> Error msg)
