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

(* [covered] counts tuples dropped because another tuple of the group
   covers them: a same-prefix tuple with a smaller maxLength (counted
   after the fill) and every node the walk unbinds. *)
type counters = { mutable covered : int; mutable merges : int; mutable absorbed : int }

(* Insert rows [lo, hi) in store order, which within a group is
   (prefix, maxLength) ascending: [value] is the maxLength (a prefix
   keeps its largest) and [idx] the store index that put it there. *)
let fill_trie (st : Vrp_store.t) s ~lo ~hi =
  let tr = s.tr in
  for i = lo to hi - 1 do
    let n =
      Itrie.probe_chunks tr ~c0:st.Vrp_store.s_c0.(i) ~c1:st.Vrp_store.s_c1.(i)
        ~c2:st.Vrp_store.s_c2.(i) ~c3:st.Vrp_store.s_c3.(i) ~len:st.Vrp_store.s_len.(i)
    in
    let ml = st.Vrp_store.s_max.(i) in
    if ml > Itrie.value tr n then begin
      Itrie.set_value tr n ml;
      set_idx s n i
    end
  done

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

(* Algorithm 1 in one walk from a raw node index. On the way down, a
   node is covered when a bound ancestor's maxLength ([above], the
   largest on the path) reaches its own: it is unbound and counted.
   On the way back up, the merge runs. A merge touches only a node and
   its children, after the node's whole subtree is walked, so every
   covering test reads the values the fill left. *)
let rec dfs_idx counters mode (tr : Itrie.t) n above =
  let v = tr.Itrie.value.(n) in
  if v >= 0 && v <= above then begin
    Itrie.override_value tr n (-1);
    counters.covered <- counters.covered + 1
  end;
  let above = if v > above then v else above in
  let l = tr.Itrie.left.(n) in
  if l >= 0 then dfs_idx counters mode tr l above;
  let r = tr.Itrie.right.(n) in
  if r >= 0 then dfs_idx counters mode tr r above;
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

let compress_range s st ~mode ~lo ~hi =
  if hi - lo = 1 then
    { out = singleton_out st lo; eliminated = 0; merges = 0; absorbed = 0 }
  else begin
    Itrie.reset s.tr;
    fill_trie st s ~lo ~hi;
    let counters = { covered = hi - lo - Itrie.cardinal s.tr; merges = 0; absorbed = 0 } in
    dfs_idx counters mode s.tr Itrie.root (-1);
    { out = collect_packed s;
      eliminated = counters.covered;
      merges = counters.merges;
      absorbed = counters.absorbed }
  end
