module Pfx = Netaddr.Pfx
module K = Pfx_key

(* Structure-of-arrays VRP store: the compression pipeline's input.
   Tuples are pushed once (decomposed into chunk columns), then
   [sort_dedup] puts them in (asn, family, prefix, max_len) order and
   drops exact duplicates in one pass — replacing the per-insert
   duplicate scans of the record path. After that, each (asn, family)
   group is a contiguous index range: the per-group kernel reads a
   [lo, hi) slice of the columns, touches only contiguous memory, and
   returns packed ints, not records. *)

type t = {
  mutable s_asn : int array;
  mutable s_fam : int array;  (* Pfx.afi_to_int: 0 = v4, 1 = v6 *)
  mutable s_c0 : int array;
  mutable s_c1 : int array;
  mutable s_c2 : int array;
  mutable s_c3 : int array;
  mutable s_len : int array;
  mutable s_max : int array;
  mutable s_rank : int array;  (* canonical rank per row, set by sort_dedup *)
  mutable n : int;
  mutable sorted : bool;  (* columns currently in sort_dedup order *)
  mutable ranges : (int * int) array option;  (* memoized group_ranges *)
  mutable sorts : int;  (* completed (non-skipped) sort_dedup passes *)
}

let create ~capacity =
  let cap = if capacity < 8 then 8 else capacity in
  {
    s_asn = Array.make cap 0;
    s_fam = Array.make cap 0;
    s_c0 = Array.make cap 0;
    s_c1 = Array.make cap 0;
    s_c2 = Array.make cap 0;
    s_c3 = Array.make cap 0;
    s_len = Array.make cap 0;
    s_max = Array.make cap 0;
    s_rank = [||];
    n = 0;
    sorted = true;  (* vacuously: the empty store is ordered *)
    ranges = None;
    sorts = 0;
  }

let length t = t.n
let sort_count t = t.sorts

let clear t =
  t.n <- 0;
  t.sorted <- true;
  t.ranges <- None

let grow t =
  let cap = Array.length t.s_asn in
  let ncap = cap * 2 in
  let extend a =
    let b = Array.make ncap 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.s_asn <- extend t.s_asn;
  t.s_fam <- extend t.s_fam;
  t.s_c0 <- extend t.s_c0;
  t.s_c1 <- extend t.s_c1;
  t.s_c2 <- extend t.s_c2;
  t.s_c3 <- extend t.s_c3;
  t.s_len <- extend t.s_len;
  t.s_max <- extend t.s_max

let max_asn = 0xFFFF_FFFF

let push t p ~max_len ~asn =
  if asn < 0 || asn > max_asn then invalid_arg "Vrp_store.push: ASN outside 32 bits";
  if t.n >= Array.length t.s_asn then grow t;
  let i = t.n in
  t.s_asn.(i) <- asn;
  t.s_fam.(i) <- Pfx.afi_to_int (Pfx.afi p);
  t.s_c0.(i) <- K.c0 p;
  t.s_c1.(i) <- K.c1 p;
  t.s_c2.(i) <- K.c2 p;
  t.s_c3.(i) <- K.c3 p;
  t.s_len.(i) <- Pfx.length p;
  t.s_max.(i) <- max_len;
  t.n <- i + 1;
  t.sorted <- false;
  t.ranges <- None

let asn t i = t.s_asn.(i)
let max_len t i = t.s_max.(i)
let len t i = t.s_len.(i)
let rank t i = t.s_rank.(i)
let fam t i = if t.s_fam.(i) = 0 then Pfx.Afi_v4 else Pfx.Afi_v6

let prefix t i =
  K.to_pfx (fam t i) ~c0:t.s_c0.(i) ~c1:t.s_c1.(i) ~c2:t.s_c2.(i) ~c3:t.s_c3.(i)
    ~len:t.s_len.(i)

(* --- ordering: one decision, the canonical rank ----------------------- *)

(* [sort_dedup] never compares rows in (asn, family, ...) order.
   It makes one ordering decision, canonical [Vrp.compare] order
   (family, prefix, maxLength, ASN), and derives the group order from
   it:
   1. One O(n) scan checks that the rows arrived in canonical order.
      Every hot producer pushes them that way ([Scan_roas],
      [Minimal], a churn group's [Vrp.Set]). Only a descent costs a
      comparison sort: a stable one, with the same comparator.
   2. Exact duplicates are now adjacent: one in-place compaction.
   3. A stable LSD radix on the packed [asn lsl 1 lor family] key
      gathers the groups. Stability keeps canonical order inside each
      group, and canonical order with asn and family fixed is
      (prefix, max_len): the columns come out in exactly the
      (asn, family, prefix, max_len) order. Keys that already ascend
      (a single group, say) skip the radix.
   The radix permutation maps each store row to its canonical
   position: that is the row's rank, which lets the compressor emit
   its outputs in [Vrp.compare] order by walking ranks instead of
   sorting a second time. *)

(* [Vrp.compare] on rows: family (v4 first, as [Pfx.compare]),
   address then length ([K.compare_key] is [Pfx.compare] within a
   family), maxLength, ASN. *)
let canonical_compare t i j =
  let c = Int.compare t.s_fam.(i) t.s_fam.(j) in
  if c <> 0 then c
  else begin
    let c =
      K.compare_key t.s_c0.(i) t.s_c1.(i) t.s_c2.(i) t.s_c3.(i) t.s_len.(i) t.s_c0.(j)
        t.s_c1.(j) t.s_c2.(j) t.s_c3.(j) t.s_len.(j)
    in
    if c <> 0 then c
    else begin
      let c = Int.compare t.s_max.(i) t.s_max.(j) in
      if c <> 0 then c else Int.compare t.s_asn.(i) t.s_asn.(j)
    end
  end
  [@@hot]

let rec canonical_from t i n =
  i >= n || (canonical_compare t (i - 1) i <= 0 && canonical_from t (i + 1) n)
  [@@hot]

(* Row [k] of [dst] becomes row [order.(k)] of [src], for the first
   [n] rows. *)
let gather src order dst n =
  for k = 0 to n - 1 do
    dst.(k) <- src.(order.(k))
  done
  [@@hot]

(* Rewrite the eight columns so that row [k] is the old row
   [order.(k)]. One spare column rotates through them: each column's
   old array becomes the next one's destination. *)
let permute t order n =
  let spare = ref (Array.make (Array.length t.s_asn) 0) in
  let move col =
    let dst = !spare in
    gather col order dst n;
    spare := col;
    dst
  in
  t.s_asn <- move t.s_asn;
  t.s_fam <- move t.s_fam;
  t.s_c0 <- move t.s_c0;
  t.s_c1 <- move t.s_c1;
  t.s_c2 <- move t.s_c2;
  t.s_c3 <- move t.s_c3;
  t.s_len <- move t.s_len;
  t.s_max <- move t.s_max

let move_row t src dst =
  t.s_asn.(dst) <- t.s_asn.(src);
  t.s_fam.(dst) <- t.s_fam.(src);
  t.s_c0.(dst) <- t.s_c0.(src);
  t.s_c1.(dst) <- t.s_c1.(src);
  t.s_c2.(dst) <- t.s_c2.(src);
  t.s_c3.(dst) <- t.s_c3.(src);
  t.s_len.(dst) <- t.s_len.(src);
  t.s_max.(dst) <- t.s_max.(src)
  [@@hot]

(* Drop adjacent duplicates of a canonically ordered store in place:
   rows [0, w) are kept, rows [i, n) not yet seen. Returns the new
   length. *)
let rec dedup t w i n =
  if i >= n then w
  else if canonical_compare t (w - 1) i = 0 then dedup t w (i + 1) n
  else begin
    if w <> i then move_row t i w;
    dedup t (w + 1) (i + 1) n
  end
  [@@hot]

let key t i = (t.s_asn.(i) lsl 1) lor t.s_fam.(i) [@@hot]
let rec keys_ascend t i n = i >= n || (key t (i - 1) <= key t i && keys_ascend t (i + 1) n) [@@hot]

(* Keys are 33 bits (32-bit ASN, 1-bit family): three 11-bit digits. *)
let digit_bits = 11
let buckets = 1 lsl digit_bits
let digit_mask = buckets - 1
let digits = 3

(* All three digit histograms in one pass; digit [d]'s lives at
   [counts.(d * buckets + digit)]. *)
let histogram keys counts n =
  for k = 0 to n - 1 do
    let key = keys.(k) in
    for d = 0 to digits - 1 do
      let b = (d * buckets) + ((key lsr (d * digit_bits)) land digit_mask) in
      counts.(b) <- counts.(b) + 1
    done
  done
  [@@hot]

(* Exclusive prefix sums over one digit's histogram: bucket counts
   become bucket start positions. *)
let rec bucket_starts counts base b start =
  if b < buckets then begin
    let c = counts.(base + b) in
    counts.(base + b) <- start;
    bucket_starts counts base (b + 1) (start + c)
  end
  [@@hot]

(* One stable counting pass on digit [d]: scatter [src] into [dst] by
   that digit of each row's key, advancing digit [d]'s bucket cursors
   in [counts]. *)
let radix_pass keys counts d src dst n =
  let base = d * buckets and shift = d * digit_bits in
  for k = 0 to n - 1 do
    let i = src.(k) in
    let b = base + ((keys.(i) lsr shift) land digit_mask) in
    let p = counts.(b) in
    dst.(p) <- i;
    counts.(b) <- p + 1
  done
  [@@hot]

(* The stable group order of a canonically ordered store: [order.(k)]
   is the canonical row that belongs at store row [k]. A digit every
   key shares (the top one while ASNs stay below 2^21) costs no
   pass. *)
let radix_order t n =
  let keys = Array.init n (key t) in
  let counts = Array.make (digits * buckets) 0 in
  histogram keys counts n;
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  for d = 0 to digits - 1 do
    let base = d * buckets in
    let shared = (keys.(0) lsr (d * digit_bits)) land digit_mask in
    if counts.(base + shared) < n then begin
      bucket_starts counts base 0 0;
      radix_pass keys counts d !src !dst n;
      let s = !src in
      src := !dst;
      dst := s
    end
  done;
  !src

let identity_rank rank n =
  let rank = if Array.length rank >= n then rank else Array.make n 0 in
  for i = 0 to n - 1 do
    rank.(i) <- i
  done;
  rank

(* Churn-aware: a store whose columns are already in order (nothing
   pushed since the last pass) returns at once — the dirty flag is
   what lets a no-op churn flush cost zero passes. *)
let sort_dedup t =
  if not t.sorted && t.n > 0 then begin
    t.sorts <- t.sorts + 1;
    t.ranges <- None;
    if not (canonical_from t 1 t.n) then begin
      let order = Array.init t.n Fun.id in
      Array.stable_sort (canonical_compare t) order;
      permute t order t.n
    end;
    let n = dedup t 1 1 t.n in
    t.n <- n;
    if keys_ascend t 1 n then t.s_rank <- identity_rank t.s_rank n
    else begin
      let order = radix_order t n in
      permute t order n;
      t.s_rank <- order
    end;
    t.sorted <- true
  end

(* Contiguous [lo, hi) ranges, one per (asn, family) group; requires a
   [sort_dedup]ed store. Memoized until the next push or clear, so
   repeated compression calls over an unchanged store rescan
   nothing. *)
let compute_ranges t =
  let n = t.n in
  if n = 0 then [||]
  else begin
    let groups = ref 1 in
    for i = 1 to n - 1 do
      if t.s_asn.(i) <> t.s_asn.(i - 1) || t.s_fam.(i) <> t.s_fam.(i - 1) then incr groups
    done;
    let ranges = Array.make !groups (0, 0) in
    let g = ref 0 and lo = ref 0 in
    for i = 1 to n - 1 do
      if t.s_asn.(i) <> t.s_asn.(i - 1) || t.s_fam.(i) <> t.s_fam.(i - 1) then begin
        ranges.(!g) <- (!lo, i);
        incr g;
        lo := i
      end
    done;
    ranges.(!g) <- (!lo, n);
    ranges
  end

let group_ranges t =
  match t.ranges with
  | Some r -> r
  | None ->
    let r = compute_ranges t in
    t.ranges <- Some r;
    r
