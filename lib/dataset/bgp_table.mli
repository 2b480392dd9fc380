(** A global BGP table as a set of announced (prefix, origin AS) pairs
    — the view of the routing system the paper's measurements consume
    (their RouteViews dataset has 776,945 such pairs on 2017-06-01).

    Beyond membership, the structure answers the coverage queries the
    §6/§7 pipelines need: per-origin subtree enumeration (for
    minimality checks), same-origin ancestor tests (for the
    maximally-permissive lower bound) and counts per prefix length. *)

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

val iter : t -> (Netaddr.Pfx.t -> Rpki.Asnum.t -> unit) -> unit
(** Visit every pair in {!fold} order. *)

val fold : t -> init:'a -> f:('a -> Netaddr.Pfx.t -> Rpki.Asnum.t -> 'a) -> 'a
(** Fold over every announced pair exactly once, in strictly
    ascending order: IPv4 pairs before IPv6 pairs, prefixes in
    [Pfx.compare] order (address, then length), and the origins of one
    prefix ascending by [Asnum.compare]. [Mlcore.Minimal] relies on
    this contract: a producer that emits one tuple per pair, with a
    maxLength fixed by the prefix, is already in [Vrp.compare] order
    and needs neither a sort nor a dedup. *)

val pairs : t -> (Netaddr.Pfx.t * Rpki.Asnum.t) list
(** Every pair, in {!fold} order. *)

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

val has_same_origin_ancestor : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> bool
(** True when some strict super-prefix of [p] is also announced by
    [a] — i.e. (p, a) would be absorbed by a maximally-permissive ROA
    on the ancestor (the paper's lower-bound argument). *)

val root_pair_count : t -> int
(** Number of pairs with no same-origin announced ancestor: the
    maximally-permissive lower bound on PDUs (729,371 in the paper). *)
