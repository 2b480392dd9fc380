(** The paper's §6 measurement pipeline over one snapshot.

    Produces every number the section reports: how many VRPs use
    maxLength, how many of those are vulnerable to forged-origin
    subprefix hijacks, what hardening costs in extra prefixes/PDUs,
    and the full-deployment compression bound. *)

type stats = {
  bgp_pairs : int;  (** Announced (prefix, AS) pairs (paper: 776,945). *)
  roas : int;  (** ROAs in the corpus (7,499). *)
  vrps : int;  (** Distinct (prefix, maxLength, AS) tuples (39,949). *)
  maxlen_vrps : int;  (** VRPs with maxLength > prefix length (4,630, ~12%). *)
  vulnerable_maxlen_vrps : int;
      (** Non-minimal maxLength VRPs — open to forged-origin subprefix
          hijack (~84% of the above). *)
  valid_pairs : int;
      (** Announced pairs made valid by the corpus; the size of the
          hardened minimal no-maxLength PDU list (52,745). *)
  additional_prefixes : int;  (** [valid_pairs - vrps] (the "13K"). *)
  lower_bound : int;
      (** Max-permissive full-deployment bound (729,371). *)
  max_compression : float;
      (** [1 - lower_bound / bgp_pairs] — the paper's 6.2%. *)
}

val measure : Dataset.Snapshot.t -> stats
(** Three passes over the snapshot's table: the vulnerability scan,
    the valid-pair count and the lower-bound count. *)

val pp : Format.formatter -> stats -> unit
