(** Incremental compress/minimality under live churn.

    The batch pipeline answers "given a snapshot, what is the minimal
    compressed ROA set and which maxLength VRPs are dangerous?" — this
    engine keeps those answers current while the inputs move. It
    maintains, event by event:

    - the live BGP table ({!Arena.Bgp_db});
    - the live VRP set (an RFC 6811 {!Validation.db});
    - the set of announced pairs that are currently Valid;
    - the set of live maxLength VRPs that are currently {e
      non-minimal} (the paper's forged-origin attack surface);
    - the compressed ROA output, recomputed {e per (origin AS, family)
      group} through the same {!Arena.Group_compress} kernel the batch
      {!Mlcore.Compress} drives — so the incremental answer is
      bit-identical to a from-scratch run, which the differential
      harness [test/test_churn.ml] proves.

    Event costs are subtree-local: a BGP announce/withdraw rechecks
    minimality only for same-origin covering maxLength VRPs; a VRP
    add/remove revalidates only the announced pairs under its prefix
    and marks one compression group dirty. Dirty groups are
    recompressed lazily at the next {!compressed}/{!flush}, each
    through a recycled scratch {!Arena.Vrp_store} and per-family
    scratch tries. *)

type event =
  | Announce of Netaddr.Pfx.t * Asnum.t
  | Withdraw of Netaddr.Pfx.t * Asnum.t
  | Add_vrp of Vrp.t
  | Remove_vrp of Vrp.t

val pair_compare : Netaddr.Pfx.t * Asnum.t -> Netaddr.Pfx.t * Asnum.t -> int
(** The canonical order of announced pairs: prefix ([Netaddr.Pfx.compare]),
    then origin — the order {!pairs} lists them in. *)

val event_to_string : event -> string
val pp_event : Format.formatter -> event -> unit
val event_equal : event -> event -> bool

type t

val create :
  ?mode:Arena.Group_compress.mode ->
  ?pairs:(Netaddr.Pfx.t * Asnum.t) list ->
  ?vrps:Vrp.t list ->
  unit ->
  t
(** Fresh engine, optionally seeded with [vrps] and [pairs]. The seed
    is a bulk build, equal to replaying every [Add_vrp], then every
    [Announce], through {!apply} on an empty engine: the same VRPs,
    pairs, Valid pairs, non-minimal set and compressed output, and the
    same {!stats} (each duplicate in either list counts as one no-op).
    Both lists are sort-deduped ({!Canonical.sort_uniq}, so a
    canonical list is only checked) and every store is built from
    them in one pass; every compression group starts dirty. [mode]
    selects the merge rule, defaulting to the batch default
    (Strict). *)

val apply : t -> event -> bool
(** Apply one event; [false] when it was a no-op (announcing a pair
    already in the table, withdrawing an absent one, adding a
    duplicate VRP, removing an absent one). No-ops leave every
    maintained set untouched. *)

val compressed : t -> Vrp.t list
(** The compressed ROA set for the current VRPs, in canonical order —
    bit-identical to [Mlcore.Compress.run ~mode] on
    {!vrps}. Flushes dirty groups first; clean groups are reused.

    Cost: the engine keeps the union of all group outputs as one
    ordered set, so beyond recompressing the dirty groups a flush costs
    O(k log n) for the k output tuples that left or arrived (n the
    set's size), and each call adds an O(n) listing. A tuple that
    survives a flush keeps its physical value, so successive lists
    share every unchanged tuple. *)

val flush : t -> unit
(** Recompress all dirty groups now and fold their changed output
    tuples into the ordered set (what {!compressed} does before
    listing) — exposed so benchmarks can meter it separately. *)

val vrps : t -> Vrp.t list
(** Live VRPs, canonical order. *)

val vrp_count : t -> int

val pairs : t -> (Netaddr.Pfx.t * Asnum.t) list
(** Live announced pairs — v4 then v6, in-order, origins ascending
    (the {!Arena.Bgp_db.fold_all} order). *)

val pair_count : t -> int

val valid_pairs : t -> (Netaddr.Pfx.t * Asnum.t) list
(** Announced pairs currently RFC-6811-Valid, canonical order. *)

val non_minimal : t -> Vrp.t list
(** Live maxLength VRPs that are currently non-minimal — each one an
    open door for a forged-origin subprefix hijack. Canonical order. *)

type stats = {
  noops : int;  (** Events that changed nothing. *)
  group_recomputes : int;  (** Dirty (asn, family) groups recompressed. *)
  store_sorts : int;
      (** {!Arena.Vrp_store.sort_count} of the scratch store — the
          witness that no-op event sequences cause zero re-sorts. *)
}

val stats : t -> stats

val self_check : t -> (unit, string) result
(** Audit every arena the engine owns: the BGP table and all three
    VRP databases ({!Arena.Bgp_db.self_check},
    {!Arena.Vrp_db.self_check}). The differential harness calls this
    after every event under [ARENA_SANITIZE=1]. *)
