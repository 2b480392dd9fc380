module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum

(* The record-backed BGP table ([Ptrie] of [Asnum.Set] refs) that
   [Dataset.Bgp_table] wrapped before the flat-arena conversion, kept
   as the differential-test oracle and test_arena's "record path".
   Same semantics and iteration order as [Dataset.Bgp_table]. *)

type t = {
  v4 : Asnum.Set.t ref Ptrie.t;
  v6 : Asnum.Set.t ref Ptrie.t;
  mutable count : int;
}

let create () = { v4 = Ptrie.create Pfx.Afi_v4; v6 = Ptrie.create Pfx.Afi_v6; count = 0 }

let trie_for t p = match Pfx.afi p with Pfx.Afi_v4 -> t.v4 | Pfx.Afi_v6 -> t.v6

let add t p a =
  Ptrie.update (trie_for t p) p (function
    | None ->
      t.count <- t.count + 1;
      Some (ref (Asnum.Set.singleton a))
    | Some s ->
      if not (Asnum.Set.mem a !s) then begin
        t.count <- t.count + 1;
        s := Asnum.Set.add a !s
      end;
      Some s)

let remove t p a =
  let removed = ref false in
  Ptrie.update (trie_for t p) p (function
    | None -> None
    | Some s ->
      if Asnum.Set.mem a !s then begin
        removed := true;
        t.count <- t.count - 1;
        let rest = Asnum.Set.remove a !s in
        if Asnum.Set.is_empty rest then None
        else begin
          s := rest;
          Some s
        end
      end
      else Some s);
  !removed

let mem t p a =
  match Ptrie.find (trie_for t p) p with
  | None -> false
  | Some s -> Asnum.Set.mem a !s

let cardinal t = t.count

let iter t f =
  let g p s = Asnum.Set.iter (fun a -> f p a) !s in
  Ptrie.iter t.v4 g;
  Ptrie.iter t.v6 g

let fold t ~init ~f =
  let g acc p s = Asnum.Set.fold (fun a acc -> f acc p a) !s acc in
  let acc = Ptrie.fold t.v4 ~init ~f:g in
  Ptrie.fold t.v6 ~init:acc ~f:g

let pairs t = List.rev (fold t ~init:[] ~f:(fun acc p a -> (p, a) :: acc))

let announced_under t p a =
  List.rev
    (Ptrie.fold_covered_by (trie_for t p) p ~init:[] ~f:(fun acc q s ->
         if Asnum.Set.mem a !s then (q, Pfx.length q) :: acc else acc))

let count_by_length_under t p a ~max_len =
  let base = Pfx.length p in
  if max_len < base then
    invalid_arg "Bgp_table_ref.count_by_length_under: max_len below prefix";
  let counts = Array.make (max_len - base + 1) 0 in
  Ptrie.iter_covered_by (trie_for t p) p (fun q s ->
      let len = Pfx.length q in
      if len <= max_len && Asnum.Set.mem a !s then
        counts.(len - base) <- counts.(len - base) + 1);
  counts

let has_same_origin_ancestor t p a =
  let len = Pfx.length p in
  Ptrie.exists_covering (trie_for t p) p (fun q s ->
      Pfx.length q < len && Asnum.Set.mem a !s)

let root_pair_count t =
  fold t ~init:0 ~f:(fun acc p a -> if has_same_origin_ancestor t p a then acc else acc + 1)
