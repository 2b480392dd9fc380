module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Db = Arena.Bgp_db

(* Thin view over the flat arena ({!Arena.Bgp_db}): announced pairs
   live as unboxed trie columns plus packed origin chains; [Asnum.t]
   is unwrapped to a plain int at this boundary. Origin chains iterate
   ascending, so every list and fold below is bit-identical to the
   record-backed oracle test_arena holds it against. *)

type t = Db.t

(* A family has at most as many distinct prefixes as pairs. *)
let create ?(v4 = 512) ?(v6 = 512) () = Db.create ~v4 ~v6 ~entries:(v4 + v6) ()
let add t p a = Db.add t p ~asn:(Asnum.to_int a)
let remove t p a = Db.remove t p ~asn:(Asnum.to_int a)
let mem t p a = Db.mem t p ~asn:(Asnum.to_int a) [@@hot]
let cardinal = Db.cardinal

let iter t f = ignore (Db.fold_all t ~init:() ~f:(fun () p asn -> f p (Asnum.of_int asn)))
let fold t ~init ~f = Db.fold_all t ~init ~f:(fun acc p asn -> f acc p (Asnum.of_int asn))
let pairs t = List.rev (fold t ~init:[] ~f:(fun acc p a -> (p, a) :: acc))

let announced_under t p a =
  Db.under_list t p ~asn:(Asnum.to_int a) ~make:(fun q len -> (q, len))

let count_by_length_under t p a ~max_len =
  let base = Pfx.length p in
  if max_len < base then invalid_arg "Bgp_table.count_by_length_under: max_len below prefix";
  let counts = Array.make (max_len - base + 1) 0 in
  Db.count_into t p ~asn:(Asnum.to_int a) ~base ~max_len counts;
  counts

let fully_announced t p a ~max_len = Db.fully_announced t p ~asn:(Asnum.to_int a) ~max_len

let has_same_origin_ancestor t p a =
  Db.has_same_origin_ancestor t p ~asn:(Asnum.to_int a)
  [@@hot]

let root_pair_count t =
  fold t ~init:0 ~f:(fun acc p a -> if has_same_origin_ancestor t p a then acc else acc + 1)
