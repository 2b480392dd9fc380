(** Synthetic Internet snapshot: a BGP table plus an aligned RPKI ROA
    corpus, statistically calibrated to the paper's 2017-06-01
    measurements (see DESIGN.md for the substitution argument and the
    calibration targets).

    The generator is deterministic in its seed. The model:

    - ASes originate "base" prefixes allocated from disjoint address
      space (IPv4-dominant, some IPv6).
    - A base may be de-aggregated: usually as a {e complete chain}
      (the base plus {e every} subprefix down to depth [d] — the shape
      that compresses losslessly), occasionally as an {e incomplete}
      scatter of longer subprefixes (the shape only a
      maximally-permissive ROA can absorb).
    - A fraction of ASes are RPKI adopters, in one of three styles:
      {ul
      {- [Flat]: minimal multi-prefix ROAs enumerating exactly what is
         announced (no maxLength);}
      {- [Cover]: one maxLength entry per base. With probability
         [p_slack] the maxLength overshoots what is announced
         (non-minimal — the paper's 84%); otherwise it exactly matches
         a complete chain (minimal maxLength use);}
      {- [Legacy]: a [Cover] ROA {e plus} a redundant enumeration ROA,
         as accumulates in real registries; the redundancy is what
         compression removes from the status quo.}} *)

type params = {
  pairs_target : int;  (** Announced (prefix, AS) pairs to generate (paper scale: 776_945). *)
  v6_share : float;  (** Fraction of pairs that are IPv6 (0.08). *)
  new_as_probability : float;  (** Chance a base starts a new AS (controls pairs/AS). *)
  p_chain : float * float * float;
      (** Background complete-chain probability at depths 1, 2, 3. *)
  p_incomplete : float;  (** Background incomplete de-aggregation probability. *)
  adopter_fraction : float;  (** Fraction of ASes that are RPKI adopters. *)
  w_flat : int;  (** Adopter style weights. *)
  w_cover : int;
  w_legacy : int;
  p_slack : float;  (** P(non-minimal maxLength) for cover entries (0.84). *)
  cover_children_mean : float;
      (** Mean announced-but-unenumerated subprefixes under a slack
          cover (heavy-tailed). *)
  p_cover_chain : float * float;
      (** Complete-chain probability at depths 1, 2 for exact
          (minimal) covers. *)
  stale_entry_probability : float;
      (** Chance a flat ROA carries an entry for an unannounced
          prefix. *)
  roa_group_size : int;  (** Target prefixes per multi-prefix ROA. *)
}

val default_params : params
(** Paper-scale defaults; divide [pairs_target] for smaller runs. *)

val scaled : float -> params
(** [scaled f] is [default_params] with [pairs_target] multiplied by
    [f] (at least 200). *)

type t = {
  params : params;
  seed : int;
  table : Bgp_table.t;
  roas : Rpki.Roa.t list;
}

val generate : ?params:params -> seed:int -> unit -> t
(** The one-target case of {!series}:
    [series ~params ~seed ~targets:[params.pairs_target] ()]. *)

val series :
  ?params:params -> seed:int -> targets:int list -> unit -> t list
(** One snapshot per pair target, in [targets]' order, each equal to
    [generate ~params:{ params with pairs_target = target } ~seed ()]:
    same table, same ROA list in the same order.

    The generator's loop reads [pairs_target] only to decide when to
    stop, so parameter sets that differ only there share the loop's
    prefix. [series] runs the loop once, to the largest target,
    records where each smaller target would have stopped it (the bases
    so far, their pair counts and the address allocator), and builds
    each snapshot — table, then ROA corpus — from its prefix of the
    bases. Every other field of [params] is common to all the cuts. *)

val vrps : t -> Rpki.Vrp.t list
(** The corpus flattened through {!Rpki.Scan_roas.vrps_of_roas} — the
    paper's "status quo" PDU list. *)
