module Pfx = Netaddr.Pfx
module K = Pfx_key

(* Flat-arena Patricia trie: a path-compressed binary prefix trie with
   every node field stored column-wise in [int array]s instead of a
   heap record per node. A node is an integer index; -1 ([nil]) is
   the null pointer. Traversals therefore touch a handful of adjacent
   arrays instead of chasing boxed records and options, and the whole
   structure is invisible to the GC's minor heap.

   Columns (index [i] is node [i]):
   - [c0..c3]  the node's full prefix as 32-bit chunks, chunk 0 most
               significant. A v6 trie holds all four; a v4 trie holds
               [c0] only, and [c1..c3] are empty arrays: an IPv4 key
               is zero there, and every walk below reads those chunks
               through [c1]/[c2]/[c3], which answer 0 for v4, or tests
               a v4 cover on chunk 0 alone;
   - [len]     the prefix length — or -1, marking a freed slot;
   - [left], [right]  child indices (or [nil]); for a freed slot,
               [left] threads the freelist;
   - [value]   the payload (>= 0), or -1 when no value is bound here
               (branch nodes); payloads are caller-defined handles;
   - [gen]     the per-slot generation, in sanitized stores only (an
               empty array otherwise).

   A v4 node thus costs 5 words and a v6 node 8, plus one for [gen]
   under the sanitizer.

   Node 0 is the permanent /0 sentinel root. Every node carries its
   full prefix, children branch on the first bit past it, interior
   valueless nodes are forks, and removal contracts pass-through
   nodes. Freed slots go on a freelist threaded through [left] and are
   reused by the next allocation; [len] = -1 marks them so stale
   handles are detectable. Growth doubles the columns and never moves
   a live node: handles are stable for the lifetime of the binding. *)

type handle = int

type t = {
  family : Pfx.afi;
  mutable c0 : int array;
  mutable c1 : int array;
  mutable c2 : int array;
  mutable c3 : int array;
  mutable len : int array;
  mutable left : int array;
  mutable right : int array;
  mutable value : int array;
  mutable gen : int array;
  mutable used : int;
  mutable free_head : int;
  mutable count : int;
  san : bool;
  name : string;
}

let nil = -1
let root = 0

let is_v6 = function Pfx.Afi_v4 -> false | Pfx.Afi_v6 -> true
let[@inline] wide t = is_v6 t.family

(* Slots that hold [n] bound prefixes without growing: the root, the
   prefixes, and at most one fork per prefix. *)
let capacity_for n = (2 * n) + 1

let create ?(capacity = 64) ?(name = "itrie") family =
  let cap = if capacity < 8 then 8 else capacity in
  let san = San.enabled () in
  let column present fill = if present then Array.make cap fill else [||] in
  {
    family;
    c0 = Array.make cap 0;
    c1 = column (is_v6 family) 0;
    c2 = column (is_v6 family) 0;
    c3 = column (is_v6 family) 0;
    len = Array.make cap 0;
    left = Array.make cap nil;
    right = Array.make cap nil;
    value = Array.make cap nil;
    gen = column san 0;
    (* slot 0 is the /0 root: zero chunks, zero length, no value *)
    used = 1;
    free_head = nil;
    count = 0;
    san;
    name;
  }

(* Chunks 1-3 of node [i]: stored in a v6 trie only; an IPv4 key is
   zero there. *)
let[@inline] c1 t i = if wide t then t.c1.(i) else 0
let[@inline] c2 t i = if wide t then t.c2.(i) else 0
let[@inline] c3 t i = if wide t then t.c3.(i) else 0

(* --- sanitizer plumbing ---------------------------------------------- *)

(* Under the sanitizer, public operations return generation-tagged
   handles ({!San.tag}). Raw indices remain legal currency — the
   compress walk reads [left]/[right] directly and feeds what it
   finds back into [set_value]/[override_value] — they just get bounds
   and liveness checks instead of the generation check
   ({!San.check}). Both are the identity when the sanitizer is off. *)
let tag t i = if t.san then San.tag ~gen:t.gen i else i

let live t ~op h =
  if t.san then San.check ~store:t.name ~op ~gen:t.gen ~mark:t.len ~used:t.used h else h

let live_index t h = live t ~op:"live_index" h

let afi t = t.family
let cardinal t = t.count
let capacity t = Array.length t.len

(* Doubles every present column; an absent one (v4 [c1..c3], [gen]
   outside the sanitizer) stays empty. *)
let grow t =
  let cap = Array.length t.len in
  let ncap = cap * 2 in
  let extend fill a =
    if Array.length a = 0 then a
    else begin
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    end
  in
  t.c0 <- extend 0 t.c0;
  t.c1 <- extend 0 t.c1;
  t.c2 <- extend 0 t.c2;
  t.c3 <- extend 0 t.c3;
  t.len <- extend 0 t.len;
  t.left <- extend nil t.left;
  t.right <- extend nil t.right;
  t.value <- extend nil t.value;
  t.gen <- extend 0 t.gen

let set_chunks t i ~c0 ~c1 ~c2 ~c3 =
  t.c0.(i) <- c0;
  if wide t then begin
    t.c1.(i) <- c1;
    t.c2.(i) <- c2;
    t.c3.(i) <- c3
  end

(* Fresh node: children and value nil. Freed slots were scrubbed on
   free; grown slots carry the fill value. *)
let alloc t ~c0 ~c1 ~c2 ~c3 ~len =
  let i =
    if t.free_head >= 0 then begin
      let i = t.free_head in
      t.free_head <- t.left.(i);
      t.left.(i) <- nil;
      i
    end
    else begin
      if t.used >= Array.length t.len then grow t;
      let i = t.used in
      t.used <- t.used + 1;
      i
    end
  in
  set_chunks t i ~c0 ~c1 ~c2 ~c3;
  t.len.(i) <- len;
  i

(* Under the sanitizer, a freed slot's chunks are poisoned so a raw
   read of the recycled slot is recognizable. *)
let scrub_chunks t i =
  let fill = if t.san then San.poison else 0 in
  set_chunks t i ~c0:fill ~c1:fill ~c2:fill ~c3:fill

let free_node t i =
  t.len.(i) <- nil;
  t.right.(i) <- nil;
  t.value.(i) <- nil;
  (* invalidate every tagged handle to this slot *)
  if t.san then t.gen.(i) <- t.gen.(i) + 1;
  scrub_chunks t i;
  t.left.(i) <- t.free_head;
  t.free_head <- i

(* Rewind to the empty state while keeping the columns. [alloc] only
   writes the chunk/len columns of the slot it hands out and relies on
   children and value being nil (the [create] fill, or [free_node]'s
   scrub), so every previously-used slot must be scrubbed here; the
   cost is proportional to the trie's previous population, with no
   allocation and no GC pressure. *)
let reset t =
  for i = 0 to t.used - 1 do
    t.left.(i) <- nil;
    t.right.(i) <- nil;
    t.value.(i) <- nil
  done;
  if t.san then begin
    (* every outstanding tagged handle — the root's included — dies
       with the epoch; chunks of non-root slots are poisoned (the root
       keeps its /0 key: it is live in the fresh epoch too) *)
    t.gen.(0) <- t.gen.(0) + 1;
    for i = 1 to t.used - 1 do
      t.gen.(i) <- t.gen.(i) + 1;
      scrub_chunks t i
    done
  end;
  t.used <- 1;
  t.free_head <- nil;
  t.count <- 0

let set_child t n dir c = if dir then t.right.(n) <- c else t.left.(n) <- c

let check_family t p =
  if Pfx.afi p <> t.family then invalid_arg "Itrie: address family mismatch"

(* --- find-or-create descent (the arena's [add]/[update] core) ------- *)

(* Cover tests between node [n] and a query key. A v4 key lives in
   chunk 0, so its test is one xor+mask and reads no other column. *)
let[@inline] node_covers t n ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql =
  let nl = t.len.(n) in
  if wide t then K.covers t.c0.(n) t.c1.(n) t.c2.(n) t.c3.(n) nl q0 q1 q2 q3 ql
  else nl <= ql && (q0 lxor t.c0.(n)) land K.hi_mask nl = 0

let[@inline] covers_node t ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql n =
  let nl = t.len.(n) in
  if wide t then K.covers q0 q1 q2 q3 ql t.c0.(n) t.c1.(n) t.c2.(n) t.c3.(n) nl
  else ql <= nl && (t.c0.(n) lxor q0) land K.hi_mask ql = 0

let rec probe_go t q0 q1 q2 q3 ql n =
  (* invariant: node [n]'s prefix covers q *)
  let nl = t.len.(n) in
  if nl = ql then n
  else begin
    let dir = K.bit q0 q1 q2 q3 nl in
    let c = if dir then t.right.(n) else t.left.(n) in
    if c < 0 then begin
      let m = alloc t ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql in
      set_child t n dir m;
      m
    end
    else if node_covers t c ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql then
      probe_go t q0 q1 q2 q3 ql c
    else begin
      (* q leaves the path on the edge into c, at bit k *)
      let k = K.common_length q0 q1 q2 q3 ql t.c0.(c) (c1 t c) (c2 t c) (c3 t c) t.len.(c) in
      if k = ql then begin
        (* q sits on the edge above c: splice it in *)
        let m = alloc t ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql in
        set_child t m (K.bit t.c0.(c) (c1 t c) (c2 t c) (c3 t c) ql) c;
        set_child t n dir m;
        m
      end
      else begin
        (* q and c diverge at bit k: fork with a branch node *)
        let f =
          alloc t ~c0:(q0 land K.hi_mask k) ~c1:(q1 land K.hi_mask (k - 32))
            ~c2:(q2 land K.hi_mask (k - 64)) ~c3:(q3 land K.hi_mask (k - 96)) ~len:k
        in
        let m = alloc t ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql in
        set_child t f (K.bit q0 q1 q2 q3 k) m;
        set_child t f (K.bit t.c0.(c) (c1 t c) (c2 t c) (c3 t c) k) c;
        set_child t n dir f;
        m
      end
    end
  end

let probe_chunks t ~c0 ~c1 ~c2 ~c3 ~len = tag t (probe_go t c0 c1 c2 c3 len root)

let probe t p =
  check_family t p;
  tag t (probe_go t (K.c0 p) (K.c1 p) (K.c2 p) (K.c3 p) (Pfx.length p) root)

(* --- payload accessors --------------------------------------------- *)

let value t i = t.value.(live t ~op:"value" i)

let set_value t i v =
  let i = live t ~op:"set_value" i in
  if v < 0 then invalid_arg "Itrie.set_value: payloads must be >= 0";
  if t.value.(i) < 0 then t.count <- t.count + 1;
  t.value.(i) <- v

(* Count-maintaining value override that also accepts -1 (unbind
   without contraction) — the compress walk unbinds covered nodes and
   absorbed children and rebinds interior nodes it will walk again,
   so structural cleanup is deferred to the trie's disposal. *)
let override_value t i v =
  let i = live t ~op:"override_value" i in
  (* branch on the two bound-states directly: this sits on the hot
     compress path (R8), where even a matched-away tuple is banned *)
  let was_bound = t.value.(i) >= 0 and now_bound = v >= 0 in
  if now_bound && not was_bound then t.count <- t.count + 1
  else if was_bound && not now_bound then t.count <- t.count - 1;
  t.value.(i) <- v

let prefix_at t i =
  let i = live t ~op:"prefix_at" i in
  K.to_pfx t.family ~c0:t.c0.(i) ~c1:(c1 t i) ~c2:(c2 t i) ~c3:(c3 t i) ~len:t.len.(i)

(* --- exact lookup ---------------------------------------------------- *)

let rec find_go t q0 q1 q2 q3 ql n =
  let nl = t.len.(n) in
  if nl >= ql then
    if nl = ql && t.c0.(n) = q0 && c1 t n = q1 && c2 t n = q2 && c3 t n = q3 then n
    else nil
  else begin
    let c = if K.bit q0 q1 q2 q3 nl then t.right.(n) else t.left.(n) in
    if c < 0 then nil else find_go t q0 q1 q2 q3 ql c
  end

let find t p =
  check_family t p;
  tag t (find_go t (K.c0 p) (K.c1 p) (K.c2 p) (K.c3 p) (Pfx.length p) root)

(* --- removal with contraction ---------------------------------------- *)

let rec remove_go t q0 q1 q2 q3 ql n =
  let nl = t.len.(n) in
  if nl = ql then begin
    (* descent only passes through covering nodes, so n's prefix = q *)
    if t.value.(n) >= 0 then begin
      t.value.(n) <- nil;
      t.count <- t.count - 1;
      true
    end
    else false
  end
  else begin
    let dir = K.bit q0 q1 q2 q3 nl in
    let c = if dir then t.right.(n) else t.left.(n) in
    if c < 0 || not (node_covers t c ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql) then false
    else begin
      let removed = remove_go t q0 q1 q2 q3 ql c in
      (* contract c if the removal left it carrying no information;
         its slot goes back on the freelist for reuse *)
      if removed && t.value.(c) < 0 then begin
        let l = t.left.(c) and r = t.right.(c) in
        if l < 0 && r < 0 then begin
          set_child t n dir nil;
          free_node t c
        end
        else if l < 0 then begin
          set_child t n dir r;
          free_node t c
        end
        else if r < 0 then begin
          set_child t n dir l;
          free_node t c
        end
      end;
      removed
    end
  end

let remove t p =
  check_family t p;
  remove_go t (K.c0 p) (K.c1 p) (K.c2 p) (K.c3 p) (Pfx.length p) root

(* --- covering helpers ------------------------------------------------ *)

(* Topmost node whose subtree holds exactly the stored prefixes covered
   by the query; [nil] when none. *)
let rec subtree_go t q0 q1 q2 q3 ql n =
  let nl = t.len.(n) in
  if nl >= ql then
    if covers_node t ~c0:q0 ~c1:q1 ~c2:q2 ~c3:q3 ~len:ql n then n else nil
  else begin
    let c = if K.bit q0 q1 q2 q3 nl then t.right.(n) else t.left.(n) in
    if c < 0 then nil else subtree_go t q0 q1 q2 q3 ql c
  end

let subtree_root t p =
  check_family t p;
  tag t (subtree_go t (K.c0 p) (K.c1 p) (K.c2 p) (K.c3 p) (Pfx.length p) root)

(* --- in-order traversal over bound nodes ----------------------------- *)

let rec fold_node t n acc f =
  let acc = if t.value.(n) >= 0 then f acc (tag t n) else acc in
  let acc =
    let l = t.left.(n) in
    if l >= 0 then fold_node t l acc f else acc
  in
  let r = t.right.(n) in
  if r >= 0 then fold_node t r acc f else acc

let fold_bound t ~init ~f = fold_node t root init f

(* --- invariant audit (for the aliasing property tests) --------------- *)

let self_check t =
  let cap = Array.length t.len in
  let seen = Array.make (if t.used = 0 then 1 else t.used) 0 in
  (* 1 = reachable from the root, 2 = on the freelist *)
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    (* column census: each column the family and mode read is exactly
       [cap] long, and every other one is empty *)
    let column name a present =
      let want = if present then cap else 0 in
      if Array.length a <> want then
        bad "column %s has length %d, expected %d" name (Array.length a) want
    in
    column "c0" t.c0 true;
    column "c1" t.c1 (wide t);
    column "c2" t.c2 (wide t);
    column "c3" t.c3 (wide t);
    column "left" t.left true;
    column "right" t.right true;
    column "value" t.value true;
    column "gen" t.gen t.san;
    if cap < t.used then bad "capacity %d below used %d" cap t.used;
    let reachable = ref 0 and valued = ref 0 in
    let rec walk n =
      if n < 0 || n >= t.used then bad "child index %d out of bounds" n;
      if seen.(n) <> 0 then bad "node %d reached twice" n;
      seen.(n) <- 1;
      incr reachable;
      let nl = t.len.(n) in
      if nl < 0 then bad "reachable node %d is marked free" n;
      if t.value.(n) >= 0 then incr valued;
      if n <> root && t.value.(n) < 0 && (t.left.(n) < 0 || t.right.(n) < 0) then
        bad "node %d is a valueless non-fork interior node" n;
      let child c =
        if c >= 0 then begin
          if t.len.(c) <= nl then bad "child %d of %d does not extend it" c n;
          if
            not
              (node_covers t n ~c0:t.c0.(c) ~c1:(c1 t c) ~c2:(c2 t c) ~c3:(c3 t c)
                 ~len:t.len.(c))
          then bad "child %d of %d is not covered by it" c n;
          walk c
        end
      in
      child t.left.(n);
      child t.right.(n)
    in
    walk root;
    let freed = ref 0 in
    let cursor = ref t.free_head in
    while !cursor >= 0 do
      let i = !cursor in
      if i >= t.used then bad "freelist index %d out of bounds" i;
      if seen.(i) = 1 then bad "freelist slot %d is reachable (aliased)" i;
      if seen.(i) = 2 then bad "freelist slot %d linked twice" i;
      seen.(i) <- 2;
      if t.len.(i) >= 0 then bad "freelist slot %d not marked free" i;
      if t.value.(i) >= 0 then bad "freelist slot %d still carries a value" i;
      if t.san && t.gen.(i) < 1 then
        bad "freelist slot %d was freed without a generation bump" i;
      incr freed;
      cursor := t.left.(i)
    done;
    if !reachable + !freed <> t.used then
      bad "reachable %d + freed %d <> used %d (leaked slots)" !reachable !freed t.used;
    if !valued <> t.count then bad "count %d but %d valued nodes" t.count !valued;
    Ok ()
  with Bad s -> fail "Itrie.self_check: %s" s
  [@@lint.test_only "witness: the trie audits its own invariants for the tests"]
