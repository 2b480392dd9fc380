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
  [@@lint.test_only "witness: the differential drives the table's delete path"]
let mem t p a = Db.mem t p ~asn:(Asnum.to_int a) [@@hot]
let cardinal = Db.cardinal

let fold t ~init ~f = Db.fold_all t ~init ~f:(fun acc p asn -> f acc p (Asnum.of_int asn))
  [@@lint.test_only "witness: tests read every announced pair in order"]

type selection = All | Roots | Valid_under of Rpki.Vrp.t list

(* RFC 6811: an AS0 VRP matches nothing, and only a VRP's own ASN can
   match, so no mark ever lands on an origin-AS0 pair. *)
let valid_marks t vrps =
  let marks = Db.marks t in
  List.iter
    (fun (v : Rpki.Vrp.t) ->
      if not (Asnum.is_zero v.Rpki.Vrp.asn) then
        Db.mark_under t marks v.Rpki.Vrp.prefix ~asn:(Asnum.to_int v.Rpki.Vrp.asn)
          ~max_len:v.Rpki.Vrp.max_len)
    vrps;
  marks

let select t sel ~make =
  let make q asn = make q (Asnum.of_int asn) in
  match sel with
  | All -> Db.to_list t Db.All ~make
  | Roots -> Db.to_list t Db.Roots ~make
  | Valid_under vrps -> Db.to_list t (Db.Marked (valid_marks t vrps)) ~make

let count t = function
  | All -> Db.cardinal t
  | Roots -> Db.root_count t
  | Valid_under vrps -> Db.marked (valid_marks t vrps)

let pairs t = select t All ~make:(fun p a -> (p, a))

let announced_under t p a =
  Db.under_list t p ~asn:(Asnum.to_int a) ~make:(fun q len -> (q, len))

let count_by_length_under t p a ~max_len =
  let base = Pfx.length p in
  if max_len < base then invalid_arg "Bgp_table.count_by_length_under: max_len below prefix";
  let counts = Array.make (max_len - base + 1) 0 in
  Db.count_into t p ~asn:(Asnum.to_int a) ~base ~max_len counts;
  counts

let fully_announced t p a ~max_len = Db.fully_announced t p ~asn:(Asnum.to_int a) ~max_len

let root_pair_count t = count t Roots
