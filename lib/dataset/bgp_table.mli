(** A global BGP table as a set of announced (prefix, origin AS) pairs
    — the view of the routing system the paper's measurements consume
    (their RouteViews dataset has 776,945 such pairs on 2017-06-01).

    Beyond membership, the structure answers the coverage queries the
    §6/§7 pipelines need: per-origin subtree enumeration and counts
    per prefix length (for minimality checks), and the two §6
    whole-table selections — the pairs with no same-origin announced
    ancestor (the maximally-permissive lower bound) and the pairs a
    VRP set makes Valid — each one walk over the table. *)

type t

val create : ?v4:int -> ?v6:int -> unit -> t
(** An empty table sized for [v4] and [v6] pairs of each family
    (default 512 each); it grows past them on demand. A bulk build
    that knows its counts ({!Snapshot.generate}) never grows. *)

val add : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> unit
(** Idempotent: the table is a set of pairs. *)

val remove : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> bool
(** Withdraw a pair; [false] when absent. *)

val mem : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> bool
val cardinal : t -> int

val fold : t -> init:'a -> f:('a -> Netaddr.Pfx.t -> Rpki.Asnum.t -> 'a) -> 'a
(** Fold over every announced pair exactly once, in strictly
    ascending order: IPv4 pairs before IPv6 pairs, prefixes in
    [Pfx.compare] order (address, then length), and the origins of one
    prefix ascending by [Asnum.compare]. [Mlcore.Minimal] relies on
    this contract: a producer that emits one tuple per pair, with a
    maxLength fixed by the prefix, is already in [Vrp.compare] order
    and needs neither a sort nor a dedup. *)

type selection =
  | All  (** every pair *)
  | Roots
      (** the pairs whose origin announces no strict super-prefix of
          theirs: those a maximally-permissive ROA on each root
          leaves as tuples *)
  | Valid_under of Rpki.Vrp.t list
      (** the pairs some VRP of the list makes Valid (RFC 6811): for
          each VRP with a non-zero ASN, its ASN's pairs under its
          prefix up to its maxLength, each pair once however many
          VRPs match it *)

val select : t -> selection -> make:(Netaddr.Pfx.t -> Rpki.Asnum.t -> 'v) -> 'v list
(** The selected pairs as [make prefix origin], in {!fold} order,
    built in one walk on the unwind ({!Arena.Bgp_db.to_list}): one
    cons per pair and one boxed prefix per announced prefix that
    yields any, with no reversal. *)

val count : t -> selection -> int
(** [List.length (select t sel ~make)], without the list: {!cardinal}
    for [All], one allocation-free walk per family for [Roots]
    ({!Arena.Bgp_db.root_count}), and for [Valid_under] the marks'
    census, which reads one byte per entry slot. *)

val pairs : t -> (Netaddr.Pfx.t * Rpki.Asnum.t) list
(** Every pair, in {!fold} order: [select t All]. *)

val announced_under : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> (Netaddr.Pfx.t * int) list
(** Announced pairs of the given origin covered by [p] (including [p]
    itself if announced), as (prefix, length) — the raw material for
    both minimal-ROA construction and minimality checking. *)

val count_by_length_under : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> max_len:int -> int array
(** [count_by_length_under t p a ~max_len].(i) is how many subprefixes
    of [p] of length [length p + i] AS [a] announces, for lengths up to
    [max_len]. Index 0 is [p] itself. *)

val fully_announced : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> max_len:int -> bool
(** [a] announces every subprefix of [p] of every length up to
    [max_len] — the §4 minimality test ({!Arena.Bgp_db.fully_announced}).
    @raise Invalid_argument when [max_len] is below [p]'s length. *)

val root_pair_count : t -> int
(** [count t Roots]: the maximally-permissive lower bound on PDUs
    (729,371 in the paper). A pair with a same-origin announced
    ancestor is absorbed by a maximally-permissive ROA on that
    ancestor. One allocation-free walk per family
    ({!Arena.Bgp_db.root_count}); it allocates only the two ancestor
    stacks. *)
