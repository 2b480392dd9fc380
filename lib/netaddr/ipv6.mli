(** IPv6 addresses and prefixes.

    Addresses are 128-bit values held as two [int64] halves. Bit 0 is the
    most significant bit, matching the prefix-trie convention. Printing
    follows RFC 5952 (lowercase hex, longest run of two or more zero
    groups compressed, leftmost run on tie). *)

type t

val bits : int
(** Number of bits in an IPv6 address (128). *)

val zero : t

val make : int64 -> int64 -> t
(** [make hi lo] assembles an address from its high and low 64 bits. *)

val high_bits : t -> int64
val low_bits : t -> int64

val of_groups : int array -> t
(** [of_groups g] builds an address from eight 16-bit groups, most
    significant first. @raise Invalid_argument unless [Array.length g = 8]. *)

val to_groups : t -> int array

val of_string : string -> (t, string) result
(** Parse RFC 4291 textual forms: full eight-group notation, [::]
    compression, and an optional embedded dotted-quad IPv4 tail. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], 0 being the most significant.
    @raise Invalid_argument if [i] is outside [0, 127]. *)

val set_bit : t -> int -> bool -> t

module Prefix : sig
  type addr = t

  type t
  (** An IPv6 prefix with canonical (host-bits-zero) network address. *)

  val make : addr -> int -> t
  val network : t -> addr
  val length : t -> int

  val of_string : string -> (t, string) result
  val to_string : t -> string

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val subset : t -> t -> bool
  val bit : t -> int -> bool

  val truncate : t -> int -> t
  (** [truncate p l] is the length-[l] covering prefix of [p].
      @raise Invalid_argument unless [0 <= l <= length p]. *)

  val common_length : t -> t -> int
  (** Length of the longest common prefix of [p] and [q], capped at
      [min (length p) (length q)]. See {!Ipv4.Prefix.common_length}. *)

  val split : t -> (t * t) option

  val subprefixes : t -> int -> t list
  (** [subprefixes p l] enumerates subprefixes of [p] of length exactly
      [l]. @raise Invalid_argument if [l < length p], [l > 128], or the
      enumeration would exceed 2^20 prefixes. *)
end
