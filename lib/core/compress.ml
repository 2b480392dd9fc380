module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Vrp = Rpki.Vrp
module Vrp_store = Arena.Vrp_store
module Kernel = Arena.Group_compress
module K = Arena.Pfx_key

(* The arena kernel's mode ({!Arena.Group_compress} holds the per-group
   machinery so [Rpki.Churn] can reuse it without this layer's dataset
   dependencies). *)
type mode = Kernel.mode = Strict | Paper

(* The pipeline runs on the flat arena: input tuples are decomposed
   into a {!Arena.Vrp_store} (structure-of-arrays columns), one
   sort-dedup orders them so each (origin AS, family) group is a
   contiguous [lo, hi) index range, and one sequential pass walks the
   ranges. Each group's trie is a scratch {!Arena.Itrie} whose [value]
   is the tuple's maxLength, with the store index in a column beside
   it ({!Arena.Group_compress.scratch}), so the merged output travels
   back as packed ints. No step sorts by comparison when the input
   arrives in [Vrp.compare] order, as every hot caller's does: the
   store groups rows with a radix and records each row's canonical
   rank, a group's rows go into its trie in store order, one walk
   drops covered tuples and merges, and the output goes back into
   canonical order by walking the ranks. Boxed [Vrp.t] records are
   rebuilt only at that last walk. Output and statistics must match
   the record-path oracle [Oracle.Compress_ref] (test/oracle)
   bit-for-bit. *)

type stats = {
  input : int;
  covered_eliminated : int;
  merges : int;
  children_absorbed : int;
  output : int;
}

(* The per-group kernel — trie fill, the one walk that drops covered
   tuples and merges, packed outputs — lives in
   {!Arena.Group_compress}; this layer only walks the group ranges and
   merges the packed results.

   One pass walks every range with a pair of scratch tries recycled
   across groups with {!Arena.Itrie.reset} — the columns stay allocated (and
   warm) from group to group instead of being rebuilt thousands of
   times. Each trie is created on its family's first multi-tuple
   group: a single-tuple group passes through [Kernel.singleton_out]
   without one, and the small per-ROA calls of an advisor audit
   (hundreds per pass) mostly hold one family, often one tuple. *)
let scratch_tries () =
  let v4 = lazy (Kernel.scratch Pfx.Afi_v4) and v6 = lazy (Kernel.scratch Pfx.Afi_v6) in
  fun st lo -> Lazy.force (match Vrp_store.fam st lo with Pfx.Afi_v4 -> v4 | Pfx.Afi_v6 -> v6)

let compress_groups st mode =
  let trie = scratch_tries () in
  Array.map
    (fun (lo, hi) ->
      if hi - lo = 1 then
        { Kernel.out = Kernel.singleton_out st lo; eliminated = 0; merges = 0; absorbed = 0 }
      else Kernel.compress_range (trie st lo) st ~mode ~lo ~hi)
    (Vrp_store.group_ranges st)

(* Sizing the columns to the input up front matters: the push loop
   never doubles, so the store allocates its eight columns exactly
   once instead of strewing doubling-copies across the major heap. *)
let store_of_vrps vrps =
  let st = Vrp_store.create ~capacity:(List.length vrps) in
  List.iter
    (fun (v : Vrp.t) ->
      Vrp_store.push st v.Vrp.prefix ~max_len:v.Vrp.max_len ~asn:(Asnum.to_int v.Vrp.asn))
    vrps;
  Vrp_store.sort_dedup st;
  st

let materialize st acc packed =
  let idx = packed lsr 8 and max_len = packed land 0xff in
  Vrp.make_exn (Vrp_store.prefix st idx) ~max_len (Asnum.of_int (Vrp_store.asn st idx))
  :: acc

(* --- the rank walk: outputs back in [Vrp.compare] order ------------- *)

(* Each packed output goes to the slot of its store row's canonical
   rank. Ranks are distinct and a group emits a prefix at most once,
   so no two outputs share a slot. *)
let place (st : Vrp_store.t) slot out =
  let rank = st.Vrp_store.s_rank in
  for k = 0 to Array.length out - 1 do
    let p = out.(k) in
    slot.(rank.(p lsr 8)) <- p
  done
  [@@hot]

(* Move the occupied slots (empty ones hold -1) to the front, keeping
   rank order; returns how many there are. *)
let rec compact slot n r w =
  if r >= n then w
  else begin
    let p = slot.(r) in
    if p < 0 then compact slot n (r + 1) w
    else begin
      slot.(w) <- p;
      compact slot n (r + 1) (w + 1)
    end
  end
  [@@hot]

let same_prefix (st : Vrp_store.t) i j =
  Int.equal st.Vrp_store.s_fam.(i) st.Vrp_store.s_fam.(j)
  && K.equal_key st.Vrp_store.s_c0.(i) st.Vrp_store.s_c1.(i) st.Vrp_store.s_c2.(i)
       st.Vrp_store.s_c3.(i) st.Vrp_store.s_len.(i) st.Vrp_store.s_c0.(j)
       st.Vrp_store.s_c1.(j) st.Vrp_store.s_c2.(j) st.Vrp_store.s_c3.(j)
       st.Vrp_store.s_len.(j)
  [@@hot]

(* Sift [slot.(k)] down into the sorted run [slot.(lo .. k-1)] by
   (maxLength, ASN) — the tail of [Vrp.compare] once prefixes tie. *)
let rec sift (st : Vrp_store.t) slot lo k =
  if k > lo then begin
    let p = slot.(k - 1) and q = slot.(k) in
    let pm = p land 0xff and qm = q land 0xff in
    if pm > qm || (pm = qm && st.Vrp_store.s_asn.(p lsr 8) > st.Vrp_store.s_asn.(q lsr 8))
    then begin
      slot.(k - 1) <- q;
      slot.(k) <- p;
      sift st slot lo (k - 1)
    end
  end
  [@@hot]

(* Rank order is [Vrp.compare] order of the {e input} rows, and a
   merge may raise an output's maxLength past that of another origin's
   output for the same prefix (MOAS). So each run of equal prefixes,
   [lo, k) so far, is re-ordered by (maxLength, ASN); runs are as long
   as a prefix has origins. *)
let rec fix_runs (st : Vrp_store.t) slot total lo k =
  if k < total then begin
    if same_prefix st (slot.(lo) lsr 8) (slot.(k) lsr 8) then begin
      sift st slot lo k;
      fix_runs st slot total lo (k + 1)
    end
    else fix_runs st slot total k (k + 1)
  end
  [@@hot]

let rank_walk st slot =
  let total = compact slot (Array.length slot) 0 0 in
  fix_runs st slot total 0 1;
  total
  [@@hot]

(* Gather the per-group packed outputs into rank slots, walk them into
   canonical order and box each tuple exactly once, consing from the
   top so the list comes out ascending. Groups are disjoint in
   (asn, family) and a group emits each prefix at most once, so no
   duplicates can exist. *)
let merge_packed st (outs : int array array) =
  let slot = Array.make (Vrp_store.length st) (-1) in
  Array.iter (place st slot) outs;
  let total = rank_walk st slot in
  let result = ref [] in
  for k = total - 1 downto 0 do
    result := materialize st !result slot.(k)
  done;
  (!result, total)

let run_with_stats ?(mode = Strict) vrps =
  let st = store_of_vrps vrps in
  let input = Vrp_store.length st in
  let results = compress_groups st mode in
  let result, output = merge_packed st (Array.map (fun r -> r.Kernel.out) results) in
  let covered_eliminated =
    Array.fold_left (fun acc r -> acc + r.Kernel.eliminated) 0 results
  in
  let merges = Array.fold_left (fun acc r -> acc + r.Kernel.merges) 0 results in
  let absorbed = Array.fold_left (fun acc r -> acc + r.Kernel.absorbed) 0 results in
  (result, { input; covered_eliminated; merges; children_absorbed = absorbed; output })

let run ?mode vrps = fst (run_with_stats ?mode vrps)

let compression_ratio ~before ~after =
  if before = 0 then 0.0 else float_of_int (before - after) /. float_of_int before
