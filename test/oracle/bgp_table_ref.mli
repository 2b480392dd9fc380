(** Record-backed BGP table: the pre-arena implementation, the
    differential oracle for [Dataset.Bgp_table] and test_arena's
    "record path". Same semantics and iteration order as
    [Dataset.Bgp_table]. *)

type t

val create : unit -> t
val add : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> unit
val remove : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> bool
val mem : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> bool
val cardinal : t -> int
val iter : t -> (Netaddr.Pfx.t -> Rpki.Asnum.t -> unit) -> unit
val fold : t -> init:'a -> f:('a -> Netaddr.Pfx.t -> Rpki.Asnum.t -> 'a) -> 'a
val pairs : t -> (Netaddr.Pfx.t * Rpki.Asnum.t) list
val announced_under : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> (Netaddr.Pfx.t * int) list
val count_by_length_under : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> max_len:int -> int array
val has_same_origin_ancestor : t -> Netaddr.Pfx.t -> Rpki.Asnum.t -> bool
val root_pair_count : t -> int
