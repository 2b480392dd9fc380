type week = { label : string; snapshot : Snapshot.t }

let labels = [ "4/13"; "4/20"; "4/27"; "5/4"; "5/11"; "5/18"; "5/25"; "6/1" ]

(* Per-week relative increase in table size: about 2% over the
   window, as in the paper, with week 8 on [params.pairs_target]. *)
let weekly_growth = 0.003

let generate ?(params = Snapshot.default_params) ~seed () =
  let targets =
    List.mapi
      (fun i _ ->
        let weeks_before_last = float_of_int (List.length labels - 1 - i) in
        let factor = 1.0 /. ((1.0 +. weekly_growth) ** weeks_before_last) in
        max 100 (int_of_float (float_of_int params.Snapshot.pairs_target *. factor)))
      labels
  in
  (* Same seed across weeks: consecutive snapshots share their
     generation prefix, so week-to-week change is genuine growth plus
     churn, not resampling noise. The weeks differ only in their pair
     target, so one generation loop serves all eight and each week is
     built from its prefix of it ([Snapshot.series]). *)
  List.map2
    (fun label snapshot -> { label; snapshot })
    labels
    (Snapshot.series ~params ~seed ~targets ())

(* --- event stream ----------------------------------------------------- *)

type state = (Netaddr.Pfx.t * Rpki.Asnum.t) list * Rpki.Vrp.t list

(* One merge walk over two canonical lists: the elements only in
   [olds] land in [removed], those only in [news] in [added], both
   descending. *)
let rec merge cmp olds news removed added =
  match (olds, news) with
  | [], [] -> (removed, added)
  | o :: os, [] -> merge cmp os [] (o :: removed) added
  | [], n :: ns -> merge cmp [] ns removed (n :: added)
  | o :: os, n :: ns ->
      let c = cmp o n in
      if c = 0 then merge cmp os ns removed added
      else if c < 0 then merge cmp os news (o :: removed) added
      else merge cmp olds ns removed (n :: added)

(* [Bgp_table.pairs] is already in canonical order: the table's [fold]
   contract is strictly ascending (prefix, origin), which is
   [Churn.pair_compare]. [Snapshot.vrps] is canonical too
   ([Scan_roas.vrps_of_roas]); [Canonical.sort_uniq] only checks it. *)
let state_of (s : Snapshot.t) =
  (Bgp_table.pairs s.Snapshot.table, Rpki.Canonical.sort_uniq Rpki.Vrp.compare (Snapshot.vrps s))

(* Canonical sides (every [state_of] result) pass the check and are
   walked as they are; any other side is sort-deduped first. *)
let sorted_diff cmp olds news =
  merge cmp (Rpki.Canonical.sort_uniq cmp olds) (Rpki.Canonical.sort_uniq cmp news) [] []

let diff ~prev:(prev_pairs, prev_vrps) ~next:(next_pairs, next_vrps) =
  let removed_pairs, added_pairs = sorted_diff Rpki.Churn.pair_compare prev_pairs next_pairs in
  let removed_vrps, added_vrps = sorted_diff Rpki.Vrp.compare prev_vrps next_vrps in
  (* Each block comes back descending; folding it onto the blocks
     after it restores ascending order, last block first. *)
  let prepend f block tail = List.fold_left (fun acc x -> f x :: acc) tail block in
  prepend (fun v -> Rpki.Churn.Remove_vrp v) removed_vrps
    (prepend (fun (p, a) -> Rpki.Churn.Withdraw (p, a)) removed_pairs
       (prepend (fun v -> Rpki.Churn.Add_vrp v) added_vrps
          (prepend (fun (p, a) -> Rpki.Churn.Announce (p, a)) added_pairs [])))
