module Vrp = Rpki.Vrp

type stats = {
  bgp_pairs : int;
  roas : int;
  vrps : int;
  maxlen_vrps : int;
  vulnerable_maxlen_vrps : int;
  valid_pairs : int;
  additional_prefixes : int;
  lower_bound : int;
  max_compression : float;
}

let measure (snap : Dataset.Snapshot.t) =
  let table = snap.Dataset.Snapshot.table in
  let vrps = Dataset.Snapshot.vrps snap in
  let n_vrps = List.length vrps in
  let maxlen = List.filter Vrp.uses_max_len vrps in
  let vulnerable =
    List.length (List.filter (fun v -> not (Minimal.is_minimal_vrp table v)) maxlen)
  in
  let valid_pairs = Dataset.Bgp_table.count table (Dataset.Bgp_table.Valid_under vrps) in
  let lower_bound = Dataset.Bgp_table.root_pair_count table in
  let bgp_pairs = Dataset.Bgp_table.cardinal table in
  {
    bgp_pairs;
    roas = List.length snap.Dataset.Snapshot.roas;
    vrps = n_vrps;
    maxlen_vrps = List.length maxlen;
    vulnerable_maxlen_vrps = vulnerable;
    valid_pairs;
    additional_prefixes = valid_pairs - n_vrps;
    lower_bound;
    max_compression = 1.0 -. (float_of_int lower_bound /. float_of_int bgp_pairs);
  }

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let maxlen_usage_fraction s = frac s.maxlen_vrps s.vrps (* paper: ~12% *)
let vulnerable_fraction s = frac s.vulnerable_maxlen_vrps s.maxlen_vrps (* paper: ~84% *)
let pdu_increase_fraction s = frac s.additional_prefixes s.vrps (* paper: ~33% *)

let pp ppf s =
  Format.fprintf ppf
    "@[<v>BGP pairs: %d@,ROAs: %d@,VRPs: %d@,maxLength-using VRPs: %d (%.1f%%)@,\
     vulnerable (non-minimal) maxLength VRPs: %d (%.1f%% of maxLength-using)@,\
     announced+valid pairs (minimal PDU list): %d (+%d, +%.1f%%)@,\
     full-deployment lower bound: %d (max compression %.1f%%)@]"
    s.bgp_pairs s.roas s.vrps s.maxlen_vrps
    (100.0 *. maxlen_usage_fraction s)
    s.vulnerable_maxlen_vrps
    (100.0 *. vulnerable_fraction s)
    s.valid_pairs s.additional_prefixes
    (100.0 *. pdu_increase_fraction s)
    s.lower_bound (100.0 *. s.max_compression)
