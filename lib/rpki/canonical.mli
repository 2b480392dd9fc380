(** Canonical lists: strictly ascending under a comparator, hence
    duplicate-free — the order {!Vrp.Set.elements},
    {!Scan_roas.vrps_of_roas} and [Dataset.Bgp_table.fold] produce.

    Consumers that accept any list but walk a canonical one (a merge
    diff, a bulk build) call {!sort_uniq}, so a producer that already
    emits canonical order costs them one pass instead of a sort. *)

val sort_uniq : ('a -> 'a -> int) -> 'a list -> 'a list
(** [sort_uniq cmp l] equals [List.sort_uniq cmp l]. When [l] is
    already strictly ascending under [cmp] it is [l] itself, decided
    by one pass that allocates nothing; otherwise the list is
    sorted. *)
