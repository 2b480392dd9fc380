(** The record path of [compress_roas]: the pre-arena implementation
    (per-group boxed [Vrp.t] lists and a record-node trie), the
    differential oracle for {!Mlcore.Compress}. Output and statistics
    are bit-identical to the arena path; it is also the "record" side
    of test_arena's allocation comparison. *)

val run : ?mode:Mlcore.Compress.mode -> Rpki.Vrp.t list -> Rpki.Vrp.t list

val run_with_stats :
  ?mode:Mlcore.Compress.mode -> Rpki.Vrp.t list -> Rpki.Vrp.t list * Mlcore.Compress.stats

val eliminate_covered : Rpki.Vrp.t list -> Rpki.Vrp.t list
(** Covered-tuple elimination alone: every tuple that another tuple of
    its (origin AS, family) group dominates (prefix covered, maxLength
    no larger) is dropped; canonical order. [Mlcore.Compress] has no
    such entry point, since it eliminates inside its merge walk, so
    this is the reference its [covered_eliminated] is checked
    against. *)
