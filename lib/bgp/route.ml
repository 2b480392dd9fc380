module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum

type t = { prefix : Pfx.t; as_path : Asnum.t list }

let make prefix as_path =
  if as_path = [] then Error "a route must have a non-empty AS path"
  else Ok { prefix; as_path }

let make_exn prefix as_path =
  match make prefix as_path with Ok r -> r | Error e -> invalid_arg e

let rec last = function
  | [] -> invalid_arg "Route.origin: empty path"
  | [ a ] -> a
  | _ :: rest -> last rest

let origin r = last r.as_path
let originate prefix asn = { prefix; as_path = [ asn ] }
let prepend asn r = { r with as_path = asn :: r.as_path }
let path_length r = List.length r.as_path
let loops_through r asn = List.exists (Asnum.equal asn) r.as_path

let compare a b =
  let c = Pfx.compare a.prefix b.prefix in
  if c <> 0 then c else List.compare Asnum.compare a.as_path b.as_path

let equal a b = compare a b = 0

let to_string r =
  Printf.sprintf "%s: %s" (Pfx.to_string r.prefix)
    (String.concat ", "
       (List.map (fun a -> "AS " ^ string_of_int (Asnum.to_int a)) r.as_path))

let pp ppf r = Format.pp_print_string ppf (to_string r)
  [@@lint.test_only "alcotest printer: test_bgp's route testable"]
