(** Route Origin Authorizations (RFC 6482 semantics).

    A ROA binds one AS number to a set of IP prefixes, each with an
    optional maxLength. ROAs with more than one prefix are first-class:
    the paper leans on this ("multiple ROAs are not required since ROAs
    support sets of IP prefixes") to convert non-minimal
    maxLength-using ROAs into minimal multi-prefix ROAs. *)

type entry = { prefix : Netaddr.Pfx.t; max_len : int option }
(** One ROAIPAddress: a prefix and its optional maxLength. *)

type t = private { asn : Asnum.t; entries : entry list }

val make : Asnum.t -> entry list -> (t, string) result
(** Validates every entry (maxLength within [prefix length, address
    bits]) and rejects an empty prefix set. Entries are kept in
    canonical sorted order with exact duplicates removed. *)

val make_exn : Asnum.t -> entry list -> t

val of_simple : Asnum.t -> (string * int option) list -> (t, string) result
(** Convenience constructor from textual prefixes, for tests and
    examples: [of_simple asn ["168.122.0.0/16", Some 24]]. *)

val asn : t -> Asnum.t
val entries : t -> entry list

val vrps : t -> Vrp.t list
(** The VRPs this ROA yields once validated: one per entry, maxLength
    defaulting to the prefix length. *)

val effective_max_len : entry -> int

val uses_max_len : t -> bool
(** True when any entry carries a maxLength greater than its prefix
    length. *)

val authorized : t -> Netaddr.Pfx.t -> Asnum.t -> bool
(** [authorized roa p origin]: this ROA makes announcement [(p, origin)]
    RPKI-valid. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
