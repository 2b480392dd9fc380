module Pfx = Netaddr.Pfx
module Vrp = Rpki.Vrp
module Bgp_table = Dataset.Bgp_table

(* [minimal_vrps], [full_deployment_vrps] and [max_permissive_vrps]
   emit one tuple per selected announced pair, with a maxLength that
   depends only on the prefix. [Bgp_table.select] lists pairs in
   [Bgp_table.fold] order, ascending by (prefix, origin), so each
   corpus comes out in strictly ascending [Vrp.compare] order: no
   sort, no dedup, no reversal. The valid pairs come from marking the
   table under each VRP, not from validating each pair against a
   database of the VRPs. *)

let minimal_vrps table vrps =
  Bgp_table.select table (Bgp_table.Valid_under vrps) ~make:Vrp.exact

let minimal_roas table roas =
  List.filter_map
    (fun roa ->
      let asn = Rpki.Roa.asn roa in
      let announced_valid =
        List.concat_map
          (fun (e : Rpki.Roa.entry) ->
            let m = Rpki.Roa.effective_max_len e in
            Bgp_table.announced_under table e.Rpki.Roa.prefix asn
            |> List.filter_map (fun (q, len) -> if len <= m then Some q else None))
          (Rpki.Roa.entries roa)
        |> List.sort_uniq Pfx.compare
      in
      match announced_valid with
      | [] -> None
      | prefixes ->
        Some (Rpki.Roa.make_exn asn (List.map (fun p -> { Rpki.Roa.prefix = p; max_len = None }) prefixes)))
    roas

let full_deployment_vrps table = Bgp_table.select table Bgp_table.All ~make:Vrp.exact

let max_permissive_vrps table =
  Bgp_table.select table Bgp_table.Roots ~make:(fun p a ->
      Vrp.make_exn p ~max_len:(Pfx.addr_bits p) a)

let is_minimal_vrp table (v : Vrp.t) =
  Bgp_table.fully_announced table v.Vrp.prefix v.Vrp.asn ~max_len:v.Vrp.max_len
