module Pfx = Netaddr.Pfx

type t = { prefix : Pfx.t; max_len : int; asn : Asnum.t }

let make prefix ~max_len asn =
  let l = Pfx.length prefix and b = Pfx.addr_bits prefix in
  if max_len < l || max_len > b then
    Error
      (Printf.sprintf "invalid maxLength %d for %s (must be in [%d, %d])" max_len
         (Pfx.to_string prefix) l b)
  else Ok { prefix; max_len; asn }

let make_exn prefix ~max_len asn =
  match make prefix ~max_len asn with Ok v -> v | Error e -> invalid_arg e

let exact prefix asn = { prefix; max_len = Pfx.length prefix; asn }
let uses_max_len v = v.max_len > Pfx.length v.prefix
let covers v p = Pfx.subset p v.prefix

let matches v p origin =
  (not (Asnum.is_zero v.asn))
  && Asnum.equal v.asn origin
  && covers v p
  && Pfx.length p <= v.max_len
  [@@lint.test_only "read by test_validation's naive RFC 6811 reference"]

(* [Pfx.compare], then max_len, then ASN. Both int-backed fields
   compare inline: a V4 payload and an ASN are [private int]s whose
   int order is their own, so the common case makes no call. *)
let compare a b =
  let c =
    match (a.prefix, b.prefix) with
    | Pfx.V4 p, Pfx.V4 q -> Int.compare (p :> int) (q :> int)
    | _ -> Pfx.compare a.prefix b.prefix
  in
  if c <> 0 then c
  else
    let c = Int.compare a.max_len b.max_len in
    if c <> 0 then c else Int.compare (a.asn :> int) (b.asn :> int)

let equal a b = compare a b = 0

let to_string v =
  if uses_max_len v then
    Printf.sprintf "%s-%d %s" (Pfx.to_string v.prefix) v.max_len (Asnum.to_string v.asn)
  else Printf.sprintf "%s %s" (Pfx.to_string v.prefix) (Asnum.to_string v.asn)

let pp ppf v = Format.pp_print_string ppf (to_string v)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
