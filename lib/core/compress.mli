(** [compress_roas] — the paper's §7 contribution.

    Compresses a list of (prefix, maxLength, origin AS) tuples into a
    smaller equivalent list that {e does} use maxLength, by building a
    per-(AS, family) prefix trie and merging sibling subtrees into
    their parents (Algorithm 1). Run on the local cache between
    [scan_roas] and the RPKI-to-Router push, it shrinks the PDU list
    without touching routers or the RPKI itself.

    Two merge rules are provided:

    - {!Strict} (default) only raises a parent's maxLength when both
      {e immediate} (one-bit-longer) children are present, which makes
      compression provably lossless: the authorized route set is
      exactly preserved (property-tested against {!Rpki.Validation}).
    - {!Paper} follows Algorithm 1's text literally: the "direct
      children" of a node are its nearest stored descendants at {e any}
      depth. When a direct child sits more than one bit below its
      parent, the merge authorizes routes that none of the input
      tuples authorized — the output can be non-minimal even for
      minimal input. The test suite exhibits such a case; see
      EXPERIMENTS.md. Provided for fidelity and for the ablation
      ([rpki_maxlen table1 --mode paper]). *)

type mode = Arena.Group_compress.mode = Strict | Paper

val run : ?mode:mode -> Rpki.Vrp.t list -> Rpki.Vrp.t list
(** Compress. Per (origin AS, family) group, one walk of the group's
    trie drops, on the way down, every tuple another tuple of the
    group dominates (prefix covered, maxLength no larger), and merges
    siblings into their parent on the way back up. The dropping is
    lossless: real RPKI corpora carry such redundancy (e.g. a legacy
    enumeration next to a maxLength cover), and Figure 3a's "status
    quo (compressed)" line depends on removing it. Output is in
    canonical VRP order, duplicates removed. *)

type stats = {
  input : int;  (** Distinct input tuples. *)
  covered_eliminated : int;
      (** Dropped as dominated by another tuple of their group. *)
  merges : int;  (** Algorithm 1 parent merges performed. *)
  children_absorbed : int;  (** Tuples deleted by those merges. *)
  output : int;
}

val run_with_stats : ?mode:mode -> Rpki.Vrp.t list -> Rpki.Vrp.t list * stats
(** Like {!run}, also reporting where the compression came from —
    covered-redundancy removal vs sibling merges (the two effects
    behind Figure 3a's "status quo (compressed)" line). *)

val compression_ratio : before:int -> after:int -> float
(** [(before - after) / before], as the paper reports (e.g. 15.90%). *)

val figure2_example : unit -> Rpki.Vrp.t list * Rpki.Vrp.t list
(** The paper's Figure 2 input and its compression, for documentation
    and tests: AS 31283's four tuples collapse to two. *)
