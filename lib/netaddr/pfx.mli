(** Address-family-independent IP prefixes.

    This is the type the rest of the project manipulates: ROA prefixes,
    VRPs, BGP NLRI and trie keys are all [Pfx.t]. Bit 0 of a prefix is
    the most significant bit of its network address. *)

type t =
  | V4 of Ipv4.Prefix.t
  | V6 of Ipv6.Prefix.t

type afi = Afi_v4 | Afi_v6
(** Address family indicator. *)

val afi : t -> afi

val afi_to_int : afi -> int
(** [Afi_v4 -> 0], [Afi_v6 -> 1]: a stable scalar encoding for hashing
    and packing. *)

val afi_equal : afi -> afi -> bool
val afi_compare : afi -> afi -> int

val addr_bits : t -> int
(** Width of the address space: 32 for IPv4, 128 for IPv6. Also the
    largest legal maxLength for a ROA on this prefix (RFC 6482). *)

val length : t -> int
(** Prefix length in bits. *)

val v4 : Ipv4.Prefix.t -> t
val v6 : Ipv6.Prefix.t -> t

val of_string : string -> (t, string) result
(** Parse either family; a ':' anywhere in the string selects IPv6. *)

val of_string_exn : string -> t
val to_string : t -> string

val compare : t -> t -> int
(** Total order: all IPv4 prefixes before all IPv6, then by network
    address, then by length. *)

val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val subset : t -> t -> bool
(** [subset sub sup]: [sup] covers [sub] (same family, [sup] shorter or
    equal, network bits agree). Reflexive. *)

val bit : t -> int -> bool
(** [bit p i] for [0 <= i < length p]. *)

val common_length : t -> t -> int
(** Length of the longest common prefix of the two arguments, capped at
    the shorter of their lengths. Allocation-free: the branch-point
    primitive of the path-compressed trie.
    @raise Invalid_argument when the families differ. *)

val truncate : t -> int -> t
(** [truncate p l] is the length-[l] covering prefix of [p].
    @raise Invalid_argument unless [0 <= l <= length p]. *)

val split : t -> (t * t) option
(** Both one-bit-longer children, or [None] at the host-route limit. *)

val subprefixes : t -> int -> t list
(** All subprefixes of exactly the given length (bounded enumeration;
    see {!Ipv6.Prefix.subprefixes} for limits). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
