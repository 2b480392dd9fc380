type t = int

let max_asn = (1 lsl 32) - 1

let of_int n =
  if n < 0 || n > max_asn then invalid_arg (Printf.sprintf "Asnum.of_int: %d out of range" n);
  n

let to_int n = n

let of_string s =
  let body =
    if String.length s >= 2 && (s.[0] = 'A' || s.[0] = 'a') && (s.[1] = 'S' || s.[1] = 's') then
      String.sub s 2 (String.length s - 2)
    else s
  in
  if body = "" || String.exists (fun c -> c < '0' || c > '9') body then
    Error (Printf.sprintf "invalid AS number %S" s)
  else
    match int_of_string_opt body with
    | Some n when n <= max_asn -> Ok n
    | Some _ | None -> Error (Printf.sprintf "AS number %S out of range" s)

let to_string n = "AS" ^ string_of_int n
let zero = 0
let is_zero n = n = 0
let compare = Int.compare
let equal = Int.equal

(* AS numbers are 32-bit non-negative ints: the value is its own
   perfectly distributed hash — no polymorphic Hashtbl.hash needed. *)
let hash n = n land max_int
let pp ppf n = Format.pp_print_string ppf (to_string n)

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
