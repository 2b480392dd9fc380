(** Structure-of-arrays VRP store: contiguous columns for the
    compression pipeline.

    Push tuples once, {!sort_dedup}, then hand each (asn, family)
    group to the per-group kernel as a contiguous [lo, hi) index
    range: it reads one slice of the columns and returns packed
    ints. The representation is exposed read-only so the
    per-group elimination/merge loops can touch the chunk columns
    directly ({!Pfx_key} convention: [s_c0] most significant). *)

type t = private {
  mutable s_asn : int array;
  mutable s_fam : int array;  (** [Pfx.afi_to_int]: 0 = v4, 1 = v6 *)
  mutable s_c0 : int array;
  mutable s_c1 : int array;
  mutable s_c2 : int array;
  mutable s_c3 : int array;
  mutable s_len : int array;
  mutable s_max : int array;
  mutable s_rank : int array;
      (** Canonical rank of each row ({!rank}); written by {!sort_dedup},
          not by {!push}. *)
  mutable n : int;
  mutable sorted : bool;  (** Columns currently in {!sort_dedup} order. *)
  mutable ranges : (int * int) array option;  (** Memoized {!group_ranges}. *)
  mutable sorts : int;  (** Completed (non-skipped) {!sort_dedup} passes. *)
}

val create : capacity:int -> t
val length : t -> int

val push : t -> Netaddr.Pfx.t -> max_len:int -> asn:int -> unit
(** Append one tuple. [asn] must lie in [0, 2^32), the range of
    [Rpki.Asnum] (the group radix reads 33-bit keys); anything else
    raises [Invalid_argument]. *)

val clear : t -> unit
(** Rewind to the empty state, keeping the allocated columns — the
    recycling primitive for a scratch store reused across churn
    flushes. *)

val sort_dedup : t -> unit
(** Order by (asn, family, prefix, max_len), drop exact duplicate
    tuples and record each row's {!rank}, without a comparison sort
    when the rows were pushed in canonical [Vrp.compare] order
    (family, prefix, max_len, asn):
    - an O(n) scan confirms the canonical order; only a descent falls
      back to [Array.stable_sort] with that comparator;
    - duplicates, now adjacent, are compacted away in place;
    - a stable LSD radix (11-bit digits) on the packed
      [asn lsl 1 lor family] key gathers the groups, keeping
      canonical order inside each; keys that already ascend (one
      group, say) skip it.

    Churn-aware: a store already in order (no {!push} since the last
    pass) returns at once, so {!sort_count} is the witness that no-op
    flushes do zero passes. *)

val sort_count : t -> int
(** How many {!sort_dedup} passes have actually run, whether or not
    they needed a comparison sort or the radix; skipped no-op calls do
    not count. *)

val rank : t -> int -> int
(** [rank t i] is row [i]'s position in canonical [Vrp.compare] order
    among the store's rows — a permutation of [0, length t). Walking
    rows by rank visits the tuples in [Vrp.compare] order, which is
    how the compressor orders its output without sorting. Valid after
    {!sort_dedup}, until the next {!push} or {!clear}. *)

val asn : t -> int -> int
val max_len : t -> int -> int
val fam : t -> int -> Netaddr.Pfx.afi

val prefix : t -> int -> Netaddr.Pfx.t
(** Rebuild the boxed prefix of tuple [i] — view layer; allocates. *)

val group_ranges : t -> (int * int) array
(** Contiguous [lo, hi) per (asn, family) group, in group-key order —
    the unit of parallelism. Requires a {!sort_dedup}ed store.
    Memoized until the next {!push} or {!clear}. *)
