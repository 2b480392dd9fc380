module Asnum = Rpki.Asnum

type node = {
  mutable customers : Asnum.t list;
  mutable peers : Asnum.t list;
  mutable providers : Asnum.t list;
}

type t = { nodes : node Asnum.Tbl.t; mutable edges : int }

let create () = { nodes = Asnum.Tbl.create 256; edges = 0 }

let node t a =
  match Asnum.Tbl.find_opt t.nodes a with
  | Some n -> n
  | None ->
    let n = { customers = []; peers = []; providers = [] } in
    Asnum.Tbl.replace t.nodes a n;
    n

let add_as t a = ignore (node t a)
let mem t a = Asnum.Tbl.mem t.nodes a

let linked n other =
  List.exists (Asnum.equal other) n.customers
  || List.exists (Asnum.equal other) n.peers
  || List.exists (Asnum.equal other) n.providers

let check_new_edge t a b =
  if Asnum.equal a b then invalid_arg "As_graph: self-link";
  if linked (node t a) b then invalid_arg "As_graph: duplicate edge"

let link t ~customer ~provider =
  check_new_edge t customer provider;
  (node t customer).providers <- provider :: (node t customer).providers;
  (node t provider).customers <- customer :: (node t provider).customers;
  t.edges <- t.edges + 1

let peer t a b =
  check_new_edge t a b;
  (node t a).peers <- b :: (node t a).peers;
  (node t b).peers <- a :: (node t b).peers;
  t.edges <- t.edges + 1

let relation t ~of_ ~with_ =
  match Asnum.Tbl.find_opt t.nodes of_ with
  | None -> None
  | Some n ->
    if List.exists (Asnum.equal with_) n.customers then Some Bgp.Policy.Customer
    else if List.exists (Asnum.equal with_) n.peers then Some Bgp.Policy.Peer
    else if List.exists (Asnum.equal with_) n.providers then Some Bgp.Policy.Provider
    else None

let neighbors t a =
  match Asnum.Tbl.find_opt t.nodes a with
  | None -> []
  | Some n ->
    List.map (fun c -> (c, Bgp.Policy.Customer)) n.customers
    @ List.map (fun p -> (p, Bgp.Policy.Peer)) n.peers
    @ List.map (fun p -> (p, Bgp.Policy.Provider)) n.providers

let customers t a = match Asnum.Tbl.find_opt t.nodes a with None -> [] | Some n -> n.customers
let peers t a = match Asnum.Tbl.find_opt t.nodes a with None -> [] | Some n -> n.peers
  [@@lint.test_only "witness: tests read the graph's shape"]
let providers t a = match Asnum.Tbl.find_opt t.nodes a with None -> [] | Some n -> n.providers
let as_list t = Asnum.Tbl.fold (fun a _ acc -> a :: acc) t.nodes [] |> List.sort Asnum.compare
let as_count t = Asnum.Tbl.length t.nodes
  [@@lint.test_only "witness: tests read the graph's shape"]
let edge_count t = t.edges
  [@@lint.test_only "witness: tests read the graph's shape"]
let is_stub t a = customers t a = []
