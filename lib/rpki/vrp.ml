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

let authorized v p = covers v p && Pfx.length p <= v.max_len

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

let of_string s =
  let ( let* ) = Result.bind in
  match String.split_on_char ' ' s with
  | [ pfx_part; asn_part ] ->
    let* asn = Asnum.of_string asn_part in
    (* Split an optional "-maxlen" suffix after the prefix length. *)
    let* prefix, max_len =
      match String.index_opt pfx_part '/' with
      | None -> Error (Printf.sprintf "invalid VRP %S" s)
      | Some slash ->
        (match String.index_from_opt pfx_part slash '-' with
         | None ->
           let* p = Pfx.of_string pfx_part in
           Ok (p, Pfx.length p)
         | Some dash ->
           let* p = Pfx.of_string (String.sub pfx_part 0 dash) in
           (match int_of_string_opt (String.sub pfx_part (dash + 1) (String.length pfx_part - dash - 1)) with
            | Some m -> Ok (p, m)
            | None -> Error (Printf.sprintf "invalid maxLength in %S" s)))
    in
    make prefix ~max_len asn
  | _ -> Error (Printf.sprintf "invalid VRP %S" s)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
