(** IPv4 addresses and prefixes.

    Addresses are 32-bit unsigned values held in a native [int] (OCaml ints
    are at least 63 bits wide on every supported platform). Bit 0 is the
    most significant bit of the address, matching the prefix-trie
    convention used throughout this project. *)

type t
(** An IPv4 address. *)

val bits : int
(** Number of bits in an IPv4 address (32). *)

val zero : t

val of_int32_bits : int -> t
(** [of_int32_bits n] interprets the low 32 bits of [n] as an address. *)

val to_int : t -> int
(** [to_int a] is the address as an unsigned integer in [0, 2^32). *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d]. Each octet is masked to
    its low 8 bits. *)

val of_string : string -> (t, string) result
(** Parse dotted-quad notation. Rejects out-of-range octets, empty
    components and trailing garbage. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse error. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val bit : t -> int -> bool
(** [bit a i] is bit [i] of [a], where bit 0 is the most significant.
    @raise Invalid_argument if [i] is outside [0, 31]. *)

val set_bit : t -> int -> bool -> t
(** [set_bit a i v] is [a] with bit [i] (0 = most significant) set to [v]. *)

val succ : t -> t
(** Next address, wrapping at the top of the address space. *)

module Prefix : sig
  type addr = t

  type t = private int
  (** An IPv4 prefix: a network address and a length in [0, 32]. The
      network address is always canonical (host bits zero). Packed as
      [(network lsl 6) lor length], so the int order is {!compare}'s
      order and a caller may compare the coerced ints directly. *)

  val make : addr -> int -> t
  (** [make a l] is the prefix [a/l] with host bits of [a] masked off.
      @raise Invalid_argument if [l] is outside [0, 32]. *)

  val network : t -> addr
  val length : t -> int

  val of_string : string -> (t, string) result
  (** Parse ["a.b.c.d/l"] notation. The address must be in canonical form
      (no host bits set beyond the prefix length). *)

  val of_string_loose : string -> (t, string) result
  (** Like {!of_string} but masks host bits instead of rejecting them. *)

  val of_string_exn : string -> t
  val to_string : t -> string

  val compare : t -> t -> int
  (** Total order: by network address, then by length (shorter first). *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit

  val mem : addr -> t -> bool
  (** [mem a p] is [true] when address [a] lies inside [p]. *)

  val subset : t -> t -> bool
  (** [subset sub sup] is [true] when every address of [sub] is in [sup],
      i.e. [sup] covers [sub]. A prefix is a subset of itself. *)

  val strict_subset : t -> t -> bool

  val bit : t -> int -> bool
  (** [bit p i] is bit [i] of the network address; only bits
      [0, length p - 1] are meaningful. *)

  val truncate : t -> int -> t
  (** [truncate p l] is the length-[l] prefix of [p]'s network address —
      the covering prefix [l] bits long.
      @raise Invalid_argument unless [0 <= l <= length p]. *)

  val common_length : t -> t -> int
  (** [common_length p q] is the length of the longest common prefix of
      [p] and [q]: the number of leading network bits they agree on,
      capped at [min (length p) (length q)]. Allocation-free; this is
      the branch-point primitive of the path-compressed trie. *)

  val split : t -> (t * t) option
  (** [split p] is the two half-length-[+1] children of [p], or [None]
      when [p] is a host route (/32). *)

  val parent : t -> t option
  (** The covering prefix one bit shorter, or [None] for 0.0.0.0/0. *)

  val sibling : t -> t option
  (** The other child of [parent p], or [None] for 0.0.0.0/0. *)

  val first : t -> addr
  val last : t -> addr

  val subprefixes : t -> int -> t list
  (** [subprefixes p l] enumerates all subprefixes of [p] of length
      exactly [l], in address order.
      @raise Invalid_argument if [l < length p] or [l > 32]. *)

  val summarize : addr -> addr -> t list
  (** [summarize lo hi] is the minimal list of prefixes that covers
      exactly the inclusive address range [lo, hi], in address order —
      the classic range-to-CIDR conversion.
      @raise Invalid_argument when [lo > hi]. *)
end
