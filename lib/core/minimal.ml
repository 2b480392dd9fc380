module Pfx = Netaddr.Pfx
module Vrp = Rpki.Vrp
module Bgp_table = Dataset.Bgp_table

(* [minimal_vrps], [full_deployment_vrps] and [max_permissive_vrps]
   emit at most one tuple per announced pair, with a maxLength that
   depends only on the prefix. [Bgp_table.fold] visits pairs in
   ascending (prefix, origin) order, so reversing the consed list
   yields strictly ascending [Vrp.compare] order: no sort, no dedup. *)

let minimal_vrps table vrps =
  let db = Rpki.Validation.create vrps in
  Bgp_table.fold table ~init:[] ~f:(fun acc p a ->
      if Rpki.Validation.authorized db p a then Vrp.exact p a :: acc else acc)
  |> List.rev

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

let full_deployment_vrps table =
  Bgp_table.fold table ~init:[] ~f:(fun acc p a -> Vrp.exact p a :: acc) |> List.rev

let max_permissive_vrps table =
  Bgp_table.fold table ~init:[] ~f:(fun acc p a ->
      if Bgp_table.has_same_origin_ancestor table p a then acc
      else Vrp.make_exn p ~max_len:(Pfx.addr_bits p) a :: acc)
  |> List.rev

let is_minimal_vrp table (v : Vrp.t) =
  Bgp_table.fully_announced table v.Vrp.prefix v.Vrp.asn ~max_len:v.Vrp.max_len
