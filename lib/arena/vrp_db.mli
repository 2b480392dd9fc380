(** Arena-backed VRP database: the storage engine behind
    {!Rpki.Validation}.

    The library's chain store keyed by (max_len, asn): one flat
    {!Itrie} per family; each bound prefix's trie [value] is the head
    of a chain of entries packed as [(max_len lsl 32) lor asn] in
    parallel [int array] columns (the same store as {!Bgp_db}). Chains
    stay sorted ascending by pack — (max_len, asn) lexicographic — so
    every whole-database or covering walk emits canonical
    [Vrp.compare] order without sorting. ASNs cross this interface as
    plain ints ([Asnum.to_int]); the view layer re-wraps them.

    Memory: a v4 trie node costs 5 words, a v6 node 8 and an entry 2
    (the column table is in {!Itrie}); a trie holds at most two nodes
    per distinct prefix. A bulk build sized by {!create}'s per-family
    counts never grows: at the paper's full deployment (one exact VRP
    per announced pair) that is about 12.5 words per VRP.

    [validate] is a single allocation-free descent over the columns,
    enforced by lint rule R7 via its [@@hot] marks.

    Under {!San} sanitized mode (captured at [create]) the store adds
    a generation column to the entries and to both tries: {!remove}
    bumps the freed entry's generation, public entry handles carry a
    generation tag, and the cursor accessors raise {!San.Violation} on
    a stale, freed or out-of-bounds handle. *)

type t

type handle = int
(** An entry handle — a cursor into one prefix's (max_len, asn) chain.
    Normally a bare entry index; generation-tagged when sanitized.
    Treat as opaque: compare only against -1 and pass back to the
    database that issued it. *)

val create : ?v4:int -> ?v6:int -> ?entries:int -> unit -> t
(** A database sized for [v4] and [v6] distinct prefixes and
    [entries] VRPs: each trie starts at {!Itrie.capacity_for} its
    count, so a build within the counts never grows. Counts default
    to small stores that grow on demand. *)

val cardinal : t -> int
(** Number of entries (distinct VRPs). *)

val add_unchecked : t -> Netaddr.Pfx.t -> max_len:int -> asn:int -> unit
(** Build-path insert: prepends without scanning for duplicates. The
    caller must feed {e distinct} tuples in {e descending} canonical
    order (so chains end up ascending) — [Validation.create]
    sort-dedups once and replays the list reversed. *)

val add : t -> Netaddr.Pfx.t -> max_len:int -> asn:int -> bool
(** Sorted-position insert; [false] when the tuple was already
    present. *)

val remove : t -> Netaddr.Pfx.t -> max_len:int -> asn:int -> bool
(** Unlink an entry (freeing its slot, and the prefix's trie node when
    the chain empties); [false] when absent. *)

val first : t -> Netaddr.Pfx.t -> handle
(** Head of the entry chain for exactly this prefix, or -1 when the
    prefix holds no entries. *)

val next : t -> handle -> handle
(** Successor entry in the chain (ascending (max_len, asn)), or -1. *)

val entry_max_len : t -> handle -> int
val entry_asn : t -> handle -> int

val validate : t -> Netaddr.Pfx.t -> asn:int -> int
(** RFC 6811 in one allocation-free descent:
    0 = Valid, 1 = Invalid (covered but not matched), 2 = NotFound. *)

val covering_list :
  t -> Netaddr.Pfx.t -> make:(Netaddr.Pfx.t -> max_len:int -> asn:int -> 'v) -> 'v list
(** The covering VRPs in canonical order. Allocates exactly the result
    list (one cons + one [make] per element, one boxed prefix per
    distinct covering prefix), built on the recursion's unwind. *)

val fold_all :
  t -> init:'a -> f:('a -> Netaddr.Pfx.t -> max_len:int -> asn:int -> 'a) -> 'a
(** Fold over every entry in canonical (v4-then-v6, address, length,
    max_len, asn) order. *)

val self_check : t -> (unit, string) result
(** Audit the whole store: both tries ({!Itrie.self_check}), then the
    entry columns — every chain strictly ascending by pack and
    disjoint from every other, freed slots marked and only on the
    freelist, chains plus freelist accounting for every allocated
    slot, and [cardinal] equal to the chain census. The churn
    differential harness runs this after every mutation. *)
