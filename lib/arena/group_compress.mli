(** The per-(origin AS, family) compression kernel of Algorithm 1 on
    the flat arena.

    One kernel, two drivers: the batch pipeline ([Mlcore.Compress])
    walks every {!Vrp_store} group range in one pass, and the
    live-churn engine ([Rpki.Churn]) recompresses a single dirty group
    per event batch. Both call {!compress_range} on a contiguous
    [lo, hi) range of a sort-deduped store with a {!scratch} of the
    group's family, and both get bit-identical packed outputs —
    the kernel is deterministic in (store contents, range, mode), so
    incremental-vs-batch equality reduces to feeding it equal groups.

    Outputs are packed ints, [(store index lsl 8) lor maxLength]:
    maxLength <= 128 fits the low byte, and the caller rebuilds prefix
    and ASN from the store columns. *)

type mode =
  | Strict  (** Merge only complete one-bit-longer sibling pairs: lossless. *)
  | Paper
      (** Algorithm 1 verbatim: "direct children" at any depth — can
          over-authorize (see [Mlcore.Compress] for the full
          discussion). *)

type scratch
(** A scratch {!Itrie} of one family, recycled across groups with
    {!Itrie.reset}, plus a column beside it holding, per node, the
    store index of the tuple that bound its value — the one reader of
    a second per-node payload, so the trie itself carries none. *)

val scratch : Netaddr.Pfx.afi -> scratch

val singleton_out : Vrp_store.t -> int -> int array
(** The packed output of a single-tuple group — no trie work. *)

type result = {
  out : int array;  (** Packed survivors, in-order (canonical within the group). *)
  eliminated : int;
      (** Tuples dropped as covered: another tuple of the group has
          the same or a covering prefix and a maxLength at least as
          large. *)
  merges : int;  (** Parent merges performed. *)
  absorbed : int;  (** Tuples deleted by those merges. *)
}

val compress_range : scratch -> Vrp_store.t -> mode:mode -> lo:int -> hi:int -> result
(** Compress one group range end-to-end: resets the scratch trie,
    inserts the rows in store order (a prefix keeps its largest
    maxLength), then walks the trie once — unbinding, on the way down,
    every node whose maxLength a bound ancestor already reaches, and
    merging on the way back up — and collects the survivors in trie
    order. No step sorts. Single-tuple ranges short-circuit without
    touching the trie. The scratch must match the range's family. *)
