module Pfx = Netaddr.Pfx

(* The chain store under {!Vrp_db} and {!Bgp_db}: one {!Itrie} per
   family plus the entry columns. A bound trie node's [value] is the
   head of a singly-linked chain of entries for that exact prefix:

   - [key]  the entry's non-negative int key — its owner's encoding of
            what the prefix carries; -1 marks a freed slot;
   - [nxt]  the next entry, or -1;
   - [gen]  the entry's generation, in sanitized stores only (an empty
            array otherwise).

   Chains are kept strictly ascending by key, so an in-order trie walk
   emitting chain order is sorted by (prefix, key) with no sorting.
   Freed entries go on a freelist threaded through [nxt]. *)

type t = {
  v4 : Itrie.t;
  v6 : Itrie.t;
  mutable key : int array;
  mutable nxt : int array;
  mutable gen : int array;
  mutable used : int;
  mutable free : int;
  mutable count : int;
  san : bool;
  name : string;
}

(* Each trie is sized for its own family's prefix count; the entry
   columns for the entry count. *)
let create ?(v4 = 0) ?(v6 = 0) ?(entries = 64) ~name () =
  let cap = if entries < 8 then 8 else entries in
  let san = San.enabled () in
  {
    v4 = Itrie.create ~capacity:(Itrie.capacity_for v4) ~name:(name ^ ".v4") Pfx.Afi_v4;
    v6 = Itrie.create ~capacity:(Itrie.capacity_for v6) ~name:(name ^ ".v6") Pfx.Afi_v6;
    key = Array.make cap (-1);
    nxt = Array.make cap (-1);
    gen = (if san then Array.make cap 0 else [||]);
    used = 0;
    free = -1;
    count = 0;
    san;
    name;
  }

let cardinal t = t.count
let trie_for t p = match Pfx.afi p with Pfx.Afi_v4 -> t.v4 | Pfx.Afi_v6 -> t.v6

let grow t =
  let cap = Array.length t.key in
  let extend fill a =
    if Array.length a = 0 then a
    else begin
      let b = Array.make (cap * 2) fill in
      Array.blit a 0 b 0 cap;
      b
    end
  in
  t.key <- extend (-1) t.key;
  t.nxt <- extend (-1) t.nxt;
  t.gen <- extend 0 t.gen

let alloc t k next =
  let e =
    if t.free >= 0 then begin
      let e = t.free in
      t.free <- t.nxt.(e);
      e
    end
    else begin
      if t.used >= Array.length t.key then grow t;
      t.used <- t.used + 1;
      t.used - 1
    end
  in
  t.key.(e) <- k;
  t.nxt.(e) <- next;
  t.count <- t.count + 1;
  e

let free t e =
  t.key.(e) <- -1;
  t.nxt.(e) <- t.free;
  t.free <- e;
  t.count <- t.count - 1;
  if t.san then t.gen.(e) <- t.gen.(e) + 1

(* Build-path insertion: no duplicate scan, unconditional prepend. The
   caller feeds distinct (prefix, key) pairs in descending order (see
   [Validation.create]), so every chain ends up ascending with O(1)
   work per pair. *)
let prepend t p k =
  let tr = trie_for t p in
  let n = Itrie.probe tr p in
  Itrie.set_value tr n (alloc t k (Itrie.value tr n))

(* The last entry of the chain from [e] whose key is below [k], or
   [prev] when none is (-1 at the chain head): [k]'s entry, when
   present, and its insertion point both come right after it. *)
let rec before t prev e k = if e >= 0 && t.key.(e) < k then before t e t.nxt.(e) k else prev

let add t p k =
  let tr = trie_for t p in
  let n = Itrie.probe tr p in
  let head = Itrie.value tr n in
  let prev = before t (-1) head k in
  let at = if prev < 0 then head else t.nxt.(prev) in
  if at >= 0 && t.key.(at) = k then false
  else begin
    let e = alloc t k at in
    if prev < 0 then Itrie.set_value tr n e else t.nxt.(prev) <- e;
    true
  end

let remove t p k =
  let tr = trie_for t p in
  let n = Itrie.find tr p in
  let head = if n < 0 then -1 else Itrie.value tr n in
  let prev = before t (-1) head k in
  let at = if prev < 0 then head else t.nxt.(prev) in
  if at < 0 || t.key.(at) <> k then false
  else begin
    let rest = t.nxt.(at) in
    free t at;
    if prev >= 0 then t.nxt.(prev) <- rest
    else if rest >= 0 then Itrie.set_value tr n rest
    else ignore (Itrie.remove tr p);
    true
  end

(* --- sanitized entry cursor ------------------------------------------ *)

(* Same discipline as {!Itrie}: a public entry handle is generation-
   tagged in sanitized mode, while internal chain walks keep using raw
   indices (bounds and liveness checks only). *)
let tag t e = if t.san then San.tag ~gen:t.gen e else e

let live t ~op h =
  if t.san then San.check ~store:t.name ~op ~gen:t.gen ~mark:t.key ~used:t.used h else h

let first t p =
  let tr = trie_for t p in
  let n = Itrie.find tr p in
  if n < 0 then -1 else tag t (Itrie.value tr n)

let next t h = tag t t.nxt.(live t ~op:"next" h)
let key t ~op h = t.key.(live t ~op h)

(* --- whole-store view ------------------------------------------------- *)

(* v4 before v6 ([Pfx.compare] families), in-order per trie, ascending
   per chain. *)
let fold_all t ~init ~f =
  let per_trie tr acc =
    Itrie.fold_bound tr ~init:acc ~f:(fun acc n ->
        let pfx = Itrie.prefix_at tr n in
        let rec chain acc e = if e < 0 then acc else chain (f acc pfx t.key.(e)) t.nxt.(e) in
        chain acc (Itrie.value tr n))
  in
  per_trie t.v6 (per_trie t.v4 init)

(* --- invariant audit -------------------------------------------------- *)

(* The delta-API counterpart of {!Itrie.self_check}: after auditing
   both tries, audit the entry columns' census ([key] and [nxt] as long
   as each other, [gen] too when sanitized and empty otherwise), then
   walk every entry chain and the freelist and check they partition
   the allocated slots — chains strictly ascending by key, freed slots
   marked, nothing reachable twice, [count] equal to the chain
   census. *)
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
         let cap = Array.length t.key in
         if Array.length t.nxt <> cap then
           bad "column nxt has length %d, expected %d" (Array.length t.nxt) cap;
         let want = if t.san then cap else 0 in
         if Array.length t.gen <> want then
           bad "column gen has length %d, expected %d" (Array.length t.gen) want;
         if cap < t.used then bad "capacity %d below used %d" cap t.used;
         let seen = Array.make (max 1 t.used) false in
         let live = ref 0 in
         let walk tr =
           Itrie.fold_bound tr ~init:() ~f:(fun () n ->
               let rec go prev e =
                 if e >= 0 then begin
                   if e >= t.used then bad "entry %d out of bounds (used %d)" e t.used;
                   if seen.(e) then bad "entry %d reachable from two chains" e;
                   seen.(e) <- true;
                   if t.key.(e) < 0 then bad "freed entry %d linked on a live chain" e;
                   if prev >= 0 && t.key.(prev) >= t.key.(e) then
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
             if e >= t.used then bad "freelist entry %d out of bounds" e;
             if seen.(e) then bad "freelist entry %d aliases a live chain (or a cycle)" e;
             seen.(e) <- true;
             if t.key.(e) >= 0 then bad "freelist entry %d not marked free" e;
             incr free;
             fgo t.nxt.(e)
           end
         in
         fgo t.free;
         if !live + !free <> t.used then
           bad "leaked entry slots: %d live + %d free <> %d used" !live !free t.used;
         Ok ()
       with Bad msg -> Error msg)
