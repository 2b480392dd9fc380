module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Vrp = Rpki.Vrp
module Validation = Rpki.Validation

(* The record-backed validation engine ([Ptrie] of boxed (max_len, asn)
   lists) that {!Rpki.Validation} used before the flat-arena
   conversion, kept verbatim as the differential-test oracle and as the
   "record path" test_arena holds the arena's allocation against.
   Semantics are identical to {!Rpki.Validation}; [covering_vrps] is
   canonicalized with a final sort so results compare with [=] against
   the arena's ordered walk. *)

type db = {
  v4 : (int * Asnum.t) list Ptrie.t;
  v6 : (int * Asnum.t) list Ptrie.t;
  mutable count : int;
}

let trie_for db p = match Pfx.afi p with Pfx.Afi_v4 -> db.v4 | Pfx.Afi_v6 -> db.v6

let create vrps =
  let db = { v4 = Ptrie.create Pfx.Afi_v4; v6 = Ptrie.create Pfx.Afi_v6; count = 0 } in
  let add (v : Vrp.t) =
    Ptrie.update (trie_for db v.Vrp.prefix) v.Vrp.prefix (function
      | None ->
        db.count <- db.count + 1;
        Some [ (v.Vrp.max_len, v.Vrp.asn) ]
      | Some l ->
        if
          List.exists
            (fun (m, a) -> Int.equal m v.Vrp.max_len && Asnum.equal a v.Vrp.asn)
            l
        then Some l
        else begin
          db.count <- db.count + 1;
          Some ((v.Vrp.max_len, v.Vrp.asn) :: l)
        end)
  in
  List.iter add vrps;
  db

let cardinal db = db.count

let covering_vrps db p =
  let acc = ref [] in
  Ptrie.iter_covering (trie_for db p) p (fun q l ->
      acc :=
        List.fold_right
          (fun (max_len, asn) acc -> { Vrp.prefix = q; max_len; asn } :: acc)
          l !acc);
  List.sort Vrp.compare !acc

let validate db p origin =
  let len = Pfx.length p in
  let found = ref false in
  let valid =
    Ptrie.exists_covering (trie_for db p) p (fun _ l ->
        found := true;
        List.exists
          (fun (max_len, asn) ->
            (not (Asnum.is_zero asn)) && Asnum.equal asn origin && len <= max_len)
          l)
  in
  if valid then Validation.Valid
  else if !found then Validation.Invalid
  else Validation.Not_found

let authorized db p origin =
  match validate db p origin with Validation.Valid -> true | _ -> false

let vrps db =
  let collect trie acc =
    Ptrie.fold trie ~init:acc ~f:(fun acc q l ->
        List.fold_left
          (fun acc (max_len, asn) -> { Vrp.prefix = q; max_len; asn } :: acc)
          acc l)
  in
  List.sort_uniq Vrp.compare (collect db.v6 (collect db.v4 []))
