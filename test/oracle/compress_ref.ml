module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Vrp = Rpki.Vrp
module Compress = Mlcore.Compress

(* The record path of [compress_roas]: the pre-arena implementation,
   with per-group boxed [Vrp.t] lists and a record-node trie. It is the
   differential-test oracle whose output and statistics the arena path
   in [Mlcore.Compress] must match bit-for-bit, and the "record" side
   of test_arena's allocation comparison. *)

(* --- grouping by (origin AS, family) -------------------------------- *)

module Group_key = struct
  type t = Asnum.t * Pfx.afi

  let equal (a1, f1) (a2, f2) = Asnum.equal a1 a2 && Pfx.afi_equal f1 f2

  (* (asn, afi) packs into one int — 32-bit ASN, 1-bit family — so the
     hash is the packed value itself, no polymorphic hashing. *)
  let hash (a, f) = (Asnum.to_int a lsl 1) lor Pfx.afi_to_int f

  let compare (a1, f1) (a2, f2) =
    let c = Asnum.compare a1 a2 in
    if c <> 0 then c else Pfx.afi_compare f1 f2
end

module Group_tbl = Hashtbl.Make (Group_key)

(* Accumulate into mutable cells: one table probe per VRP on the hot
   path (two only when a key first appears), table pre-sized from the
   input length so it never rehashes mid-build. *)
let group_by_as_family ?size_hint vrps =
  let n = match size_hint with Some n -> n | None -> List.length vrps in
  let groups = Group_tbl.create (max 64 (n / 8)) in
  List.iter
    (fun (v : Vrp.t) ->
      let key = (v.Vrp.asn, Pfx.afi v.Vrp.prefix) in
      match Group_tbl.find_opt groups key with
      | Some cell -> cell := v :: !cell
      | None -> Group_tbl.add groups key (ref [ v ]))
    vrps;
  groups

(* Groups are mutually independent (§7 works per origin AS and address
   family), so they can be processed in any order; sorting by key
   makes the run deterministic. *)
let grouped_array ?size_hint vrps =
  let groups = group_by_as_family ?size_hint vrps in
  let arr =
    Array.of_seq
      (Seq.map (fun (k, cell) -> (k, !cell)) (Group_tbl.to_seq groups))
  in
  Array.sort (fun (k1, _) (k2, _) -> Group_key.compare k1 k2) arr;
  arr

(* --- covered-tuple elimination (one group) -------------------------- *)

(* Returns the kept tuples plus how many were dropped as covered. *)
let eliminate_group ((asn, afi), group) =
  (* Shortest prefixes first; among equals, larger maxLength first,
     so a dominating tuple is always inserted before anything it
     covers. *)
  let sorted =
    List.sort
      (fun (a : Vrp.t) (b : Vrp.t) ->
        let c = Int.compare (Pfx.length a.Vrp.prefix) (Pfx.length b.Vrp.prefix) in
        if c <> 0 then c else Int.compare b.Vrp.max_len a.Vrp.max_len)
      group
  in
  let kept = Ptrie.create afi in
  let out = ref [] in
  let n_in = ref 0 in
  let n_kept = ref 0 in
  List.iter
    (fun (v : Vrp.t) ->
      incr n_in;
      let dominated =
        Ptrie.exists_covering kept v.Vrp.prefix (fun _ m -> m >= v.Vrp.max_len)
      in
      if not dominated then begin
        Ptrie.update kept v.Vrp.prefix (function
          | Some m -> Some (max m v.Vrp.max_len)
          | None -> Some v.Vrp.max_len);
        incr n_kept;
        out := Vrp.make_exn v.Vrp.prefix ~max_len:v.Vrp.max_len asn :: !out
      end)
    sorted;
  (!out, !n_in - !n_kept)

(* --- the compression trie (Algorithm 1) ----------------------------- *)

(* Path-compressed like {!Ptrie}: each node stores its full prefix, and
   children branch on the first bit past it. Only stored tuples and
   genuine branch points materialise as nodes. [value] is the tuple's
   maxLength, or -1 when no tuple lives here (branch nodes, and nodes
   absorbed by a merge). *)

type node = {
  prefix : Pfx.t;
  mutable value : int; (* maxLength, or -1 when no tuple lives here *)
  mutable left : node option;
  mutable right : node option;
}

let zero_prefix = function
  | Pfx.Afi_v4 -> Pfx.of_string_exn "0.0.0.0/0"
  | Pfx.Afi_v6 -> Pfx.of_string_exn "::/0"

let new_root afi = { prefix = zero_prefix afi; value = -1; left = None; right = None }
let node_leaf p v = { prefix = p; value = v; left = None; right = None }
let set_child n right c = if right then n.right <- Some c else n.left <- Some c

let insert root p max_len =
  let pl = Pfx.length p in
  let rec go n =
    let nl = Pfx.length n.prefix in
    if nl = pl then n.value <- max n.value max_len (* duplicates keep the larger maxLength *)
    else begin
      let dir = Pfx.bit p nl in
      match (if dir then n.right else n.left) with
      | None -> set_child n dir (node_leaf p max_len)
      | Some c ->
        let k = Pfx.common_length p c.prefix in
        if k = Pfx.length c.prefix then go c
        else if k = pl then begin
          (* p lies on the edge above c *)
          let m = node_leaf p max_len in
          set_child m (Pfx.bit c.prefix pl) c;
          set_child n dir m
        end
        else begin
          (* p and c.prefix diverge at bit k *)
          let fork = { prefix = Pfx.truncate p k; value = -1; left = None; right = None } in
          set_child fork (Pfx.bit p k) (node_leaf p max_len);
          set_child fork (Pfx.bit c.prefix k) c;
          set_child n dir fork
        end
    end
  in
  go root

(* Nearest stored descendant on one side (Paper mode's "direct
   child"): minimal prefix length; leftmost (smallest address) on a
   tie. An in-order scan pruned at [best]'s length finds it: in-order
   visits equal-length prefixes in address order, and a subtree whose
   root is already at least as long as the incumbent cannot hold a
   strictly shorter stored prefix. *)
let direct_child = function
  | None -> None
  | Some c ->
    let rec scan n best =
      match best with
      | Some b when Pfx.length b.prefix <= Pfx.length n.prefix -> best
      | _ ->
        if n.value >= 0 then Some n (* children are strictly longer: prune *)
        else begin
          let best = match n.left with Some l -> scan l best | None -> best in
          match n.right with Some r -> scan r best | None -> best
        end
    in
    scan c None

type merge_counters = { mutable merges : int; mutable absorbed : int }

(* Algorithm 1's compress(), applied on DFS backtrack. With path
   compression the bit-trie's immediate child P|0 (resp. P|1) is
   stored iff our child on that side is exactly one bit longer and
   carries a value: a node for P|b, being the shortest possible
   prefix in that side's subtree, is always the subtree's root. *)
let merge_at counters mode n =
  if n.value >= 0 then begin
    let parent_value = n.value in
    let nl = Pfx.length n.prefix in
    let children =
      match mode with
      | Compress.Strict ->
        (match n.left, n.right with
         | Some l, Some r
           when l.value >= 0 && Pfx.length l.prefix = nl + 1
                && r.value >= 0 && Pfx.length r.prefix = nl + 1 ->
           Some (l, r)
         | _ -> None)
      | Compress.Paper ->
        (match direct_child n.left, direct_child n.right with
         | Some l, Some r -> Some (l, r)
         | _ -> None)
    in
    match children with
    | None -> ()
    | Some (l, r) ->
      let lv = l.value and rv = r.value in
      let min_child = min lv rv in
      if min_child > parent_value then begin
        counters.merges <- counters.merges + 1;
        n.value <- min_child;
        if lv <= min_child then begin
          l.value <- -1;
          counters.absorbed <- counters.absorbed + 1
        end;
        if rv <= min_child then begin
          r.value <- -1;
          counters.absorbed <- counters.absorbed + 1
        end
      end
  end

let rec dfs counters mode n =
  (match n.left with Some c -> dfs counters mode c | None -> ());
  (match n.right with Some c -> dfs counters mode c | None -> ());
  merge_at counters mode n

(* Every node carries its full prefix, so collection is a plain walk —
   no path reconstruction. (Callers sort the result; order is free.) *)
let collect asn root =
  let out = ref [] in
  let rec go n =
    if n.value >= 0 then out := Vrp.make_exn n.prefix ~max_len:n.value asn :: !out;
    (match n.left with Some c -> go c | None -> ());
    match n.right with Some c -> go c | None -> ()
  in
  go root;
  !out

(* One group end-to-end on the record path: eliminate within the group
   (the relation is per-origin, per-family, so this is exactly what
   the global pass would have done to it), then build the trie and
   merge. *)
type group_result = {
  vrps : Vrp.t list;
  eliminated : int;
  g_merges : int;
  g_absorbed : int;
}

let compress_group ~mode (((asn, afi), _) as keyed) =
  let group, eliminated = eliminate_group keyed in
  let counters = { merges = 0; absorbed = 0 } in
  let root = new_root afi in
  List.iter (fun (v : Vrp.t) -> insert root v.Vrp.prefix v.Vrp.max_len) group;
  dfs counters mode root;
  { vrps = collect asn root;
    eliminated;
    g_merges = counters.merges;
    g_absorbed = counters.absorbed }

let run_with_stats ?(mode = Compress.Strict) vrps =
  let distinct = List.sort_uniq Vrp.compare vrps in
  let input = List.length distinct in
  let arr = grouped_array ~size_hint:input distinct in
  let results = Array.map (compress_group ~mode) arr in
  let result =
    Array.fold_left (fun acc r -> List.rev_append r.vrps acc) [] results
    |> List.sort_uniq Vrp.compare
  in
  let covered_eliminated = Array.fold_left (fun acc r -> acc + r.eliminated) 0 results in
  let merges = Array.fold_left (fun acc r -> acc + r.g_merges) 0 results in
  let absorbed = Array.fold_left (fun acc r -> acc + r.g_absorbed) 0 results in
  ( result,
    { Compress.input;
      covered_eliminated;
      merges;
      children_absorbed = absorbed;
      output = List.length result } )

let run ?mode vrps = fst (run_with_stats ?mode vrps)

let eliminate_covered vrps =
  let arr = grouped_array vrps in
  let results = Array.map (fun g -> fst (eliminate_group g)) arr in
  Array.fold_left (fun acc l -> List.rev_append l acc) [] results
  |> List.sort_uniq Vrp.compare
