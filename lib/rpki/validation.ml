module Db = Arena.Vrp_db

type state = Valid | Invalid | Not_found

let state_to_string = function
  | Valid -> "Valid"
  | Invalid -> "Invalid"
  | Not_found -> "NotFound"

let pp_state ppf s = Format.pp_print_string ppf (state_to_string s)

(* Thin view over the flat arena ({!Arena.Vrp_db}): prefixes live as
   unboxed chunk columns, (max_len, asn) pairs as packed ints. Boxed
   [Vrp.t] records exist only at this layer's edges — [create]
   decomposes them, [vrps]/[covering_vrps] re-materialize them. *)

type db = Db.t

(* Distinct prefixes per family of a canonical (sorted) VRP list,
   where equal prefixes are adjacent: each run counts at its last
   element. *)
let rec prefix_counts v4 v6 = function
  | [] -> (v4, v6)
  | (a : Vrp.t) :: ((b : Vrp.t) :: _ as rest) when Netaddr.Pfx.equal a.Vrp.prefix b.Vrp.prefix ->
    prefix_counts v4 v6 rest
  | (v : Vrp.t) :: rest -> (
    match v.Vrp.prefix with
    | Netaddr.Pfx.V4 _ -> prefix_counts (v4 + 1) v6 rest
    | Netaddr.Pfx.V6 _ -> prefix_counts v4 (v6 + 1) rest)

let create vrp_list =
  (* One sort-dedup instead of a linear duplicate scan per insert (none
     for a list already in canonical order); replaying the distinct
     list in descending order lets the arena prepend unconditionally
     while ending up with ascending (canonical-order) chains. Each
     family's trie is sized by its own prefix count, so the build never
     grows a column. *)
  let distinct = Canonical.sort_uniq Vrp.compare vrp_list in
  let v4, v6 = prefix_counts 0 0 distinct in
  let db = Db.create ~v4 ~v6 ~entries:(List.length distinct) () in
  List.iter
    (fun (v : Vrp.t) ->
      Db.add_unchecked db v.Vrp.prefix ~max_len:v.Vrp.max_len
        ~asn:(Asnum.to_int v.Vrp.asn))
    (List.rev distinct);
  db

let cardinal = Db.cardinal

let add db (v : Vrp.t) =
  Db.add db v.Vrp.prefix ~max_len:v.Vrp.max_len ~asn:(Asnum.to_int v.Vrp.asn)

let remove db (v : Vrp.t) =
  Db.remove db v.Vrp.prefix ~max_len:v.Vrp.max_len ~asn:(Asnum.to_int v.Vrp.asn)

let validate db p origin =
  match Db.validate db p ~asn:(Asnum.to_int origin) with
  | 0 -> Valid
  | 1 -> Invalid
  | _ -> Not_found
  [@@hot]

let authorized db p origin = Db.validate db p ~asn:(Asnum.to_int origin) = 0 [@@hot]

let covering_vrps db p =
  Db.covering_list db p ~make:(fun prefix ~max_len ~asn ->
      { Vrp.prefix; max_len; asn = Asnum.of_int asn })

let vrps db =
  List.rev
    (Db.fold_all db ~init:[] ~f:(fun acc prefix ~max_len ~asn ->
         { Vrp.prefix; max_len; asn = Asnum.of_int asn } :: acc))

let self_check = Db.self_check
