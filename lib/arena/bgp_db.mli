(** Arena-backed BGP table: the storage engine behind
    {!Dataset.Bgp_table}.

    The library's chain store keyed by origin ASN: one flat {!Itrie}
    per family; each announced prefix's trie [value] heads an
    origin-ASN chain in parallel [int array] columns, sorted ascending
    by ASN — the same iteration order as the record-backed table's
    [Asnum.Set], so every fold is bit-identical to the oracle. ASNs
    cross this interface as plain ints.

    The per-pair queries — membership and the per-length census behind
    minimality checks — are single allocation-free descents ([@@hot],
    enforced by lint rule R7). The §6 whole-table counts are walks,
    not one descent per pair:
    - {!root_count}, the lower bound: one pre-order walk per family
      that keeps the bound ancestors' chain heads on a stack of at most
      33 (v4) or 129 (v6) slots; each entry costs one chain scan per
      bound ancestor, and the walk allocates only the stack.
    - {!mark_under}, the announced-and-valid pairs: per VRP, one
      descent to the subtree its prefix covers, then a walk of that
      subtree pruned at its maxLength; the marks are one byte per
      entry slot, owned by the caller.
    {!to_list} turns either, or the whole table, into a list in one
    walk on the unwind.

    Memory is {!Vrp_db}'s: 5 words per v4 trie node, 8 per v6 node, 2
    per pair, and at most two nodes per announced prefix.

    Under {!San} sanitized mode (captured at [create]) the store adds
    a generation column to the origin entries and to both tries:
    {!remove} bumps the freed entry's generation, public entry handles
    carry a generation tag, and the cursor accessors raise
    {!San.Violation} on a stale, freed or out-of-bounds handle. *)

type t

type handle = int
(** An entry handle — a cursor into one prefix's origin chain.
    Normally a bare entry index; generation-tagged when sanitized.
    Treat as opaque: compare only against -1 and pass back to the
    table that issued it. *)

val create : ?v4:int -> ?v6:int -> ?entries:int -> unit -> t
(** A table sized for [v4] and [v6] distinct prefixes and [entries]
    pairs ({!Chains.create}); it grows past them on demand. *)

val cardinal : t -> int
(** Number of announced (prefix, origin) pairs. *)

val add : t -> Netaddr.Pfx.t -> asn:int -> unit
(** Idempotent pair insert. *)

val remove : t -> Netaddr.Pfx.t -> asn:int -> bool
(** Withdraw a pair (freeing its entry slot, and the prefix's trie
    node when no origin remains); [false] when absent. *)

val first : t -> Netaddr.Pfx.t -> handle
(** Head of the origin chain for exactly this prefix, or -1 when the
    prefix is not announced. *)

val origin : t -> handle -> int
(** The entry's origin ASN. *)

val mem : t -> Netaddr.Pfx.t -> asn:int -> bool

val count_into :
  t -> Netaddr.Pfx.t -> asn:int -> base:int -> max_len:int -> int array -> unit
(** Census of [asn]'s announcements covered by [p]: adds 1 to
    [counts.(len - base)] per announced pair of length [len <=
    max_len], accumulating straight into the caller's array. *)

val fully_announced : t -> Netaddr.Pfx.t -> asn:int -> max_len:int -> bool
(** The paper's §4 minimality test, stated once: [asn] announces
    every subprefix of [p] at every length up to [max_len] ([p] itself
    included). One {!count_into} census into a fresh array.
    @raise Invalid_argument when [max_len] is below [p]'s length. *)

val under_list :
  t -> Netaddr.Pfx.t -> asn:int -> make:(Netaddr.Pfx.t -> int -> 'v) -> 'v list
(** [asn]'s announced pairs covered by [p] as [make prefix length], in
    trie order, built on the recursion's unwind. *)

val fold_all : t -> init:'a -> f:('a -> Netaddr.Pfx.t -> int -> 'a) -> 'a
(** Fold over every pair: v4 then v6, in-order, origins ascending. *)

val fold_under : t -> Netaddr.Pfx.t -> init:'a -> f:('a -> Netaddr.Pfx.t -> int -> 'a) -> 'a
(** Fold over every announced pair covered by [p], whatever the origin
    — the revalidation frontier of a VRP add/remove. In-order, origins
    ascending. *)

val self_check : t -> (unit, string) result
(** Audit the whole store: both tries ({!Itrie.self_check}), then the
    origin columns — every chain strictly ascending and disjoint from
    every other, freed slots marked and only on the freelist, chains
    plus freelist accounting for every allocated slot, and [cardinal]
    equal to the chain census. The churn differential harness runs
    this after every mutation. *)

(** {2 Whole-table walks} *)

val root_count : t -> int
(** Pairs whose origin announces no strict super-prefix of theirs: one
    allocation-free pre-order walk per family over the columns, with
    the bound ancestors' chain heads on a stack. *)

type marks
(** One byte per entry slot of the table as it stood at {!marks}. A
    table is never written by a walk, so passes that mark
    concurrently over one table each own their marks. *)

val marks : t -> marks
(** Fresh marks, all clear. *)

val mark_under : t -> marks -> Netaddr.Pfx.t -> asn:int -> max_len:int -> unit
(** Mark [asn]'s announced pairs covered by [p] up to length
    [max_len]: the pairs a VRP [(p, max_len, asn)] matches. Marks
    already set stay set, so overlapping VRPs mark each pair once.
    [asn] is compared as is: the caller skips AS0 VRPs. *)

val marked : marks -> int
(** How many pairs are marked. *)

type selection =
  | All  (** every pair *)
  | Roots  (** the pairs {!root_count} counts *)
  | Marked of marks  (** the pairs whose mark is set *)

val to_list : t -> selection -> make:(Netaddr.Pfx.t -> int -> 'v) -> 'v list
(** The selected pairs as [make prefix asn], in {!fold_all} order. One
    walk per family on the unwind (right subtree, then left, then the
    node) conses the list front to back: one cons per pair and one
    boxed prefix per node that yields any, with no reversal. *)
