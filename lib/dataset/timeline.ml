type week = { label : string; snapshot : Snapshot.t }

let labels = [ "4/13"; "4/20"; "4/27"; "5/4"; "5/11"; "5/18"; "5/25"; "6/1" ]

(* Per-week relative increase in table size: about 2% over the
   window, as in the paper, with week 8 on [params.pairs_target]. *)
let weekly_growth = 0.003

let generate ?(params = Snapshot.default_params) ?domains ~seed () =
  let week_params =
    List.mapi
      (fun i label ->
        let weeks_before_last = float_of_int (List.length labels - 1 - i) in
        let factor = 1.0 /. ((1.0 +. weekly_growth) ** weeks_before_last) in
        ( label,
          { params with
            Snapshot.pairs_target =
              max 100 (int_of_float (float_of_int params.Snapshot.pairs_target *. factor)) } ))
      labels
    |> Array.of_list
  in
  (* Same seed across weeks: consecutive snapshots share their
     generation prefix, so week-to-week change is genuine growth plus
     churn, not resampling noise. Each week derives its own private
     PRNG stream from that seed inside [Snapshot.generate], touching
     no state outside its task — which is what makes one-domain-per-
     week generation below both safe and bit-identical to the
     sequential loop. *)
  let week_of (label, params) = { label; snapshot = Snapshot.generate ~params ~seed () } in
  Array.to_list (Parallel.Pool.parallel_map ?domains ~f:week_of week_params)

(* --- event stream ----------------------------------------------------- *)

type state = (Netaddr.Pfx.t * Rpki.Asnum.t) list * Rpki.Vrp.t list

let pair_compare (p1, a1) (p2, a2) =
  let c = Netaddr.Pfx.compare p1 p2 in
  if c <> 0 then c else Rpki.Asnum.compare a1 a2

(* One merge pass over both sides in canonical order; inputs are
   sort_uniq'd first so raw [Snapshot.vrps] lists (which may repeat a
   tuple across ROAs) diff the same as their set semantics. *)
let sorted_diff cmp olds news =
  let rec go olds news removed added =
    match (olds, news) with
    | [], [] -> (List.rev removed, List.rev added)
    | o :: os, [] -> go os [] (o :: removed) added
    | [], n :: ns -> go [] ns removed (n :: added)
    | o :: os, n :: ns ->
        let c = cmp o n in
        if c = 0 then go os ns removed added
        else if c < 0 then go os news (o :: removed) added
        else go olds ns removed (n :: added)
  in
  go (List.sort_uniq cmp olds) (List.sort_uniq cmp news) [] []

let state_of (s : Snapshot.t) =
  ( List.sort_uniq pair_compare (Bgp_table.pairs s.Snapshot.table),
    List.sort_uniq Rpki.Vrp.compare (Snapshot.vrps s) )

let diff ~prev:(prev_pairs, prev_vrps) ~next:(next_pairs, next_vrps) =
  let removed_pairs, added_pairs = sorted_diff pair_compare prev_pairs next_pairs in
  let removed_vrps, added_vrps = sorted_diff Rpki.Vrp.compare prev_vrps next_vrps in
  List.concat
    [
      List.map (fun v -> Rpki.Churn.Remove_vrp v) removed_vrps;
      List.map (fun (p, a) -> Rpki.Churn.Withdraw (p, a)) removed_pairs;
      List.map (fun v -> Rpki.Churn.Add_vrp v) added_vrps;
      List.map (fun (p, a) -> Rpki.Churn.Announce (p, a)) added_pairs;
    ]
