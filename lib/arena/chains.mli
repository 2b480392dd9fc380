(** The chain store under {!Vrp_db} and {!Bgp_db}, private to the
    library: one flat {!Itrie} per family whose bound nodes each head
    a strictly ascending chain of non-negative int keys, held in
    parallel [int array] columns. Each owner picks the key encoding —
    the (max_len, asn) pack for VRPs, the origin ASN for BGP pairs —
    and adds its own descents over the exposed columns.

    An entry costs 2 words ([key], [nxt]). Under {!San} sanitized mode
    (captured at [create]) the store also allocates a generation column
    [gen], here and in both tries, and in no other mode: {!remove}
    bumps the freed entry's generation, {!first} and {!next} return
    generation-tagged handles, and {!next} and {!key} raise
    {!San.Violation} on a stale, freed or out-of-bounds handle. *)

type t = private {
  v4 : Itrie.t;
  v6 : Itrie.t;
  mutable key : int array;  (** entry key >= 0; -1 marks a freed slot *)
  mutable nxt : int array;  (** next entry in the chain or on the freelist, or -1 *)
  mutable gen : int array;
      (** per-entry generation, bumped on free; sanitized stores only,
          empty otherwise *)
  mutable used : int;  (** high-water mark: all entry indices are < used *)
  mutable free : int;  (** freelist head, or -1 *)
  mutable count : int;  (** live entries *)
  san : bool;  (** sanitized mode, captured from {!San.enabled} at creation *)
  name : string;  (** store name reported in {!San.Violation} messages *)
}

val create : ?v4:int -> ?v6:int -> ?entries:int -> name:string -> unit -> t
(** A store sized for [v4] and [v6] distinct prefixes of each family
    (default 0: the tries start at their minimum and grow) and
    [entries] entries (default 64). Each trie gets
    {!Itrie.capacity_for} its own count, so a bulk build that knows
    its counts never grows. The tries are named [name ^ ".v4"] and
    [name ^ ".v6"]. *)

val cardinal : t -> int
val trie_for : t -> Netaddr.Pfx.t -> Itrie.t

val prepend : t -> Netaddr.Pfx.t -> int -> unit
(** Build-path insert: prepends without scanning. The caller must feed
    {e distinct} (prefix, key) pairs in {e descending} key order per
    prefix, so chains end up ascending. *)

val add : t -> Netaddr.Pfx.t -> int -> bool
(** Sorted-position insert; [false] when the key is already present. *)

val remove : t -> Netaddr.Pfx.t -> int -> bool
(** Unlink a key (freeing its entry, and the prefix's trie node when
    the chain empties); [false] when absent. The walk stops at the
    first key past the target. *)

val first : t -> Netaddr.Pfx.t -> int
(** Handle of the chain head for exactly this prefix, or -1. *)

val next : t -> int -> int
(** Successor entry's handle, or -1. *)

val key : t -> op:string -> int -> int
(** The entry's key; [op] names the caller's accessor in a sanitizer
    violation. *)

val fold_all : t -> init:'a -> f:('a -> Netaddr.Pfx.t -> int -> 'a) -> 'a
(** Every entry in (v4-then-v6, address, length, key) order. *)

val self_check : t -> (unit, string) result
(** Audit both tries ({!Itrie.self_check}), then the entry columns:
    the census ([key] and [nxt] equally long, [gen] as long as them
    when sanitized and empty otherwise), every chain strictly
    ascending and disjoint from every other,
    freed slots marked and only on the freelist, chains plus freelist
    accounting for every allocated slot, and [cardinal] equal to the
    chain census. *)
