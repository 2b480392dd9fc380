(** Chunked prefix keys: a [Pfx.t] as four 32-bit immediate-int chunks
    plus a length.

    The flat-arena trie ({!Itrie}) stores prefixes column-wise in
    [int array]s, one column per chunk. This module is the bridge: it
    decomposes boxed prefixes into chunks once at the arena boundary
    and provides the bit/mask/branch-point primitives that let every
    hot traversal run on immediates — no [Int64] boxing, no records,
    no allocation. Chunk 0 holds the most significant 32 bits; IPv4
    prefixes live entirely in chunk 0. All keys are canonical (host
    bits beyond the length are zero). *)

val mask32 : int

val clz32 : int -> int
(** Leading zeros of a 32-bit value; 32 when zero. *)

val hi_mask : int -> int
(** [hi_mask n] is the mask of the top [n] bits of a 32-bit word,
    clamped to [0, 32] — so per-chunk comparisons can be written
    unconditionally with [n - 32k]. *)

val c0 : Netaddr.Pfx.t -> int
val c1 : Netaddr.Pfx.t -> int
val c2 : Netaddr.Pfx.t -> int
val c3 : Netaddr.Pfx.t -> int

val to_pfx :
  Netaddr.Pfx.afi -> c0:int -> c1:int -> c2:int -> c3:int -> len:int -> Netaddr.Pfx.t
(** Rebuild the boxed prefix — the view-layer direction; allocates. *)

val bit : int -> int -> int -> int -> int -> bool
(** [bit c0 c1 c2 c3 i]: bit [i] of the chunked address, 0 = most
    significant (the {!Netaddr.Pfx.bit} convention). *)

val common_length : int -> int -> int -> int -> int -> int -> int -> int -> int -> int -> int
(** [common_length a0 a1 a2 a3 la b0 b1 b2 b3 lb]: length of the
    longest common prefix, capped at [min la lb]. *)

val covers : int -> int -> int -> int -> int -> int -> int -> int -> int -> int -> bool
(** [covers b0 b1 b2 b3 lb a0 a1 a2 a3 la]: prefix [b/lb] covers
    [a/la]. Reflexive. *)

val equal_key : int -> int -> int -> int -> int -> int -> int -> int -> int -> int -> bool

val compare_key : int -> int -> int -> int -> int -> int -> int -> int -> int -> int -> int
(** Address-then-length order — [Pfx.compare] restricted to one
    family. *)
