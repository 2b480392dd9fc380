(* The per-(origin AS, family) compression kernel of Algorithm 1,
   extracted from the batch pipeline so the live-churn engine
   ({!Rpki.Churn}) can recompress a single dirty group without pulling
   the whole [Mlcore.Compress] layer (and its dataset dependencies)
   into scope. Everything here works on one contiguous [lo, hi) range
   of a {!Vrp_store} and a scratch {!Itrie} of the matching family;
   the batch path walks every group range, the churn path calls it
   one dirty group at a time — both get bit-identical outputs because
   the kernel is deterministic in (store contents, range, mode). *)

type mode = Strict | Paper

(* The scratch trie and, beside it, the store index of the tuple that
   bound each node's value ([idx.(i)] for raw node [i]). Only the
   kernel reads that index, so it lives here, not in {!Itrie}. It
   grows with the trie; a slot is written whenever its node's value
   is, so entries left over from an earlier group are never read. *)
type scratch = { tr : Itrie.t; mutable idx : int array }

let scratch family =
  let tr = Itrie.create ~capacity:256 family in
  { tr; idx = Array.make (Itrie.capacity tr) (-1) }

let set_idx s n i =
  let n = Itrie.live_index s.tr n in
  if n >= Array.length s.idx then begin
    let b = Array.make (Itrie.capacity s.tr) (-1) in
    Array.blit s.idx 0 b 0 (Array.length s.idx);
    s.idx <- b
  end;
  s.idx.(n) <- i

type counters = { mutable merges : int; mutable absorbed : int }

(* Store indices of [lo, hi) ordered shortest-prefix-first, larger
   maxLength first among equals (index as the deterministic tail), so
   a dominating tuple is always inserted before anything it covers —
   the elimination order of the record path. *)
let elimination_order (st : Vrp_store.t) lo hi =
  let order = Array.init (hi - lo) (fun k -> lo + k) in
  Array.sort
    (fun i j ->
      let c = Int.compare st.Vrp_store.s_len.(i) st.Vrp_store.s_len.(j) in
      if c <> 0 then c
      else begin
        let c = Int.compare st.Vrp_store.s_max.(j) st.Vrp_store.s_max.(i) in
        if c <> 0 then c else Int.compare i j
      end)
    order;
  order

(* Insert the group's (surviving) tuples into the scratch trie: [value]
   is the maxLength (duplicate prefixes keep the larger, as the record
   trie's insert does), [idx] the store index that put it there. When
   [eliminate] is set, a tuple whose maxLength is dominated along its
   covering path is dropped instead; returns how many were. *)
let fill_trie st s ~eliminate order =
  let tr = s.tr in
  let dropped = ref 0 in
  Array.iter
    (fun i ->
      let c0 = st.Vrp_store.s_c0.(i)
      and c1 = st.Vrp_store.s_c1.(i)
      and c2 = st.Vrp_store.s_c2.(i)
      and c3 = st.Vrp_store.s_c3.(i)
      and len = st.Vrp_store.s_len.(i)
      and ml = st.Vrp_store.s_max.(i) in
      if eliminate && Itrie.covering_max_chunks tr ~c0 ~c1 ~c2 ~c3 ~len >= ml then
        incr dropped
      else begin
        let n = Itrie.probe_chunks tr ~c0 ~c1 ~c2 ~c3 ~len in
        if ml > Itrie.value tr n then begin
          Itrie.set_value tr n ml;
          set_idx s n i
        end
      end)
    order;
  !dropped

(* Paper mode's "direct child" over the arena trie: nearest stored
   descendant — minimal prefix length, leftmost on a tie — found by an
   in-order scan pruned at the incumbent's length. *)
let rec dc_scan (tr : Itrie.t) n best =
  if best >= 0 && tr.Itrie.len.(best) <= tr.Itrie.len.(n) then best
  else if tr.Itrie.value.(n) >= 0 then n
  else begin
    let best =
      let l = tr.Itrie.left.(n) in
      if l >= 0 then dc_scan tr l best else best
    in
    let r = tr.Itrie.right.(n) in
    if r >= 0 then dc_scan tr r best else best
  end
  [@@hot]

let direct_child_idx tr c = if c < 0 then Itrie.nil else dc_scan tr c Itrie.nil [@@hot]

let merge_children (counters : counters) (tr : Itrie.t) n l r =
  let parent_value = tr.Itrie.value.(n) in
  let lv = tr.Itrie.value.(l) and rv = tr.Itrie.value.(r) in
  let min_child = if lv < rv then lv else rv in
  if min_child > parent_value then begin
    counters.merges <- counters.merges + 1;
    Itrie.set_value tr n min_child;
    if lv <= min_child then begin
      Itrie.override_value tr l (-1);
      counters.absorbed <- counters.absorbed + 1
    end;
    if rv <= min_child then begin
      Itrie.override_value tr r (-1);
      counters.absorbed <- counters.absorbed + 1
    end
  end
  [@@hot]

(* Algorithm 1's compress(), applied on DFS backtrack. With path
   compression the bit-trie's immediate child P|0 (resp. P|1) is
   stored iff our child on that side is exactly one bit longer and
   carries a value: a node for P|b, being the shortest possible
   prefix in that side's subtree, is always the subtree's root. *)
let merge_at_idx counters mode (tr : Itrie.t) n =
  if tr.Itrie.value.(n) >= 0 then begin
    match mode with
    | Strict ->
      let nl = tr.Itrie.len.(n) in
      let l = tr.Itrie.left.(n) and r = tr.Itrie.right.(n) in
      if
        l >= 0 && r >= 0
        && tr.Itrie.value.(l) >= 0
        && tr.Itrie.len.(l) = nl + 1
        && tr.Itrie.value.(r) >= 0
        && tr.Itrie.len.(r) = nl + 1
      then merge_children counters tr n l r
    | Paper ->
      let l = direct_child_idx tr tr.Itrie.left.(n) in
      if l >= 0 then begin
        let r = direct_child_idx tr tr.Itrie.right.(n) in
        if r >= 0 then merge_children counters tr n l r
      end
  end
  [@@hot]

(* Post-order merge sweep (Algorithm 1's compress() on backtrack) from
   a raw node index, bumping [counters]. *)
let rec dfs_idx counters mode (tr : Itrie.t) n =
  let l = tr.Itrie.left.(n) in
  if l >= 0 then dfs_idx counters mode tr l;
  let r = tr.Itrie.right.(n) in
  if r >= 0 then dfs_idx counters mode tr r;
  merge_at_idx counters mode tr n
  [@@hot]

(* One range's result: each surviving tuple packed as
   [(store index lsl 8) lor maxLength]. Merges only ever raise the
   value of an already-stored node, so [idx] is always the index of a
   tuple with that very prefix — the caller rebuilds prefix and ASN
   from the store, ints end to end. *)
type result = {
  out : int array;
  eliminated : int;
  merges : int;
  absorbed : int;
}

(* A lone tuple is its whole (origin, family) relation: nothing can
   cover it and nothing can merge with it, so it passes through
   unchanged with zero trie work. Real tables are dominated by such
   groups, which is why [compress_range] special-cases them before
   even touching the scratch trie. *)
let singleton_out (st : Vrp_store.t) lo = [| (lo lsl 8) lor st.Vrp_store.s_max.(lo) |]

let collect_packed s =
  let tr = s.tr in
  let out = Array.make (Itrie.cardinal tr) 0 in
  let filled =
    Itrie.fold_bound tr ~init:0 ~f:(fun k m ->
        out.(k) <- (s.idx.(Itrie.live_index tr m) lsl 8) lor Itrie.value tr m;
        k + 1)
  in
  assert (filled = Array.length out);
  out

let compress_range s st ~mode ~eliminate ~lo ~hi =
  if hi - lo = 1 then
    { out = singleton_out st lo; eliminated = 0; merges = 0; absorbed = 0 }
  else begin
    Itrie.reset s.tr;
    let dropped = fill_trie st s ~eliminate (elimination_order st lo hi) in
    let counters = { merges = 0; absorbed = 0 } in
    dfs_idx counters mode s.tr Itrie.root;
    { out = collect_packed s;
      eliminated = dropped;
      merges = counters.merges;
      absorbed = counters.absorbed }
  end

let eliminate_range s st ~lo ~hi =
  if hi - lo = 1 then singleton_out st lo
  else begin
    Itrie.reset s.tr;
    ignore (fill_trie st s ~eliminate:true (elimination_order st lo hi));
    (* Survivors keep their own (index, maxLength): per group a prefix
       survives at most once, so the node's idx is exactly that
       tuple. *)
    collect_packed s
  end
