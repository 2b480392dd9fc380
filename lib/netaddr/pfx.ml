type t =
  | V4 of Ipv4.Prefix.t
  | V6 of Ipv6.Prefix.t

type afi = Afi_v4 | Afi_v6

let afi = function V4 _ -> Afi_v4 | V6 _ -> Afi_v6
let afi_to_int = function Afi_v4 -> 0 | Afi_v6 -> 1
let afi_equal a b = Int.equal (afi_to_int a) (afi_to_int b)
  [@@lint.test_only "read by the test oracle Compress_ref"]
let afi_compare a b = Int.compare (afi_to_int a) (afi_to_int b)
  [@@lint.test_only "read by the test oracle Compress_ref"]
let addr_bits = function V4 _ -> Ipv4.bits | V6 _ -> Ipv6.bits
let length = function V4 p -> Ipv4.Prefix.length p | V6 p -> Ipv6.Prefix.length p
let v4 p = V4 p
let v6 p = V6 p

let of_string s =
  if String.contains s ':' then Result.map v6 (Ipv6.Prefix.of_string s)
  else Result.map v4 (Ipv4.Prefix.of_string s)

let of_string_exn s =
  match of_string s with Ok p -> p | Error e -> invalid_arg e

let to_string = function
  | V4 p -> Ipv4.Prefix.to_string p
  | V6 p -> Ipv6.Prefix.to_string p

let compare a b =
  match a, b with
  | V4 p, V4 q -> Ipv4.Prefix.compare p q
  | V6 p, V6 q -> Ipv6.Prefix.compare p q
  | V4 _, V6 _ -> -1
  | V6 _, V4 _ -> 1

let equal a b = compare a b = 0

(* Hash the packed integer forms directly — no per-call tuple (this
   sits on the Validation/Bgp_table hot path). The V4 payload is
   already (network lsl 6) lor length, a single immediate int; V6 mixes
   its three ints FNV-1a style. *)
let hash = function
  (* The V4 payload is packed into one immediate int, so Hashtbl.hash
     sees no abstract structure here — it is just an int scrambler
     (and its values are load-bearing for bucket order downstream). *)
  | V4 p ->
    (Hashtbl.hash [@lint.poly_ok])
      ((Ipv4.to_int (Ipv4.Prefix.network p) lsl 6) lor Ipv4.Prefix.length p)
  | V6 p ->
    let n = Ipv6.Prefix.network p in
    let h = 0x9e3779b1 in
    let h = (h lxor Int64.to_int (Ipv6.high_bits n)) * 0x01000193 in
    let h = (h lxor Int64.to_int (Ipv6.low_bits n)) * 0x01000193 in
    let h = (h lxor Ipv6.Prefix.length p) * 0x01000193 in
    h land max_int

let pp ppf p = Format.pp_print_string ppf (to_string p)

let subset sub sup =
  match sub, sup with
  | V4 p, V4 q -> Ipv4.Prefix.subset p q
  | V6 p, V6 q -> Ipv6.Prefix.subset p q
  | V4 _, V6 _ | V6 _, V4 _ -> false

let bit p i =
  match p with V4 q -> Ipv4.Prefix.bit q i | V6 q -> Ipv6.Prefix.bit q i

let common_length a b =
  match a, b with
  | V4 p, V4 q -> Ipv4.Prefix.common_length p q
  | V6 p, V6 q -> Ipv6.Prefix.common_length p q
  | V4 _, V6 _ | V6 _, V4 _ -> invalid_arg "Pfx.common_length: address family mismatch"
  [@@lint.test_only "read by the test oracles Ptrie and Compress_ref"]

let truncate p l =
  match p with
  | V4 q -> V4 (Ipv4.Prefix.truncate q l)
  | V6 q -> V6 (Ipv6.Prefix.truncate q l)
  [@@lint.test_only "read by the test oracles Ptrie and Compress_ref"]

let split = function
  | V4 p -> Option.map (fun (a, b) -> (V4 a, V4 b)) (Ipv4.Prefix.split p)
  | V6 p -> Option.map (fun (a, b) -> (V6 a, V6 b)) (Ipv6.Prefix.split p)

let subprefixes p l =
  match p with
  | V4 q ->
    if l - Ipv4.Prefix.length q > 20 then
      invalid_arg "Pfx.subprefixes: enumeration too large"
    else List.map v4 (Ipv4.Prefix.subprefixes q l)
  | V6 q -> List.map v6 (Ipv6.Prefix.subprefixes q l)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
module Tbl = Hashtbl.Make (Hashed)
