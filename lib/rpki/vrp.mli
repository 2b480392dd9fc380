(** Validated ROA Payloads.

    A VRP is the (IP prefix, maxLength, origin AS) triple that the
    trusted local cache extracts from validated ROAs and ships to
    routers over RPKI-to-Router — the "PDU" the paper counts in Table 1
    and Figure 3. *)

type t = { prefix : Netaddr.Pfx.t; max_len : int; asn : Asnum.t }

val make : Netaddr.Pfx.t -> max_len:int -> Asnum.t -> (t, string) result
(** Enforces RFC 6482: [length prefix <= max_len <= addr_bits prefix]. *)

val make_exn : Netaddr.Pfx.t -> max_len:int -> Asnum.t -> t

val exact : Netaddr.Pfx.t -> Asnum.t -> t
(** A VRP whose maxLength equals its prefix length — the shape a
    minimal, maxLength-free ROA produces. *)

val uses_max_len : t -> bool
(** True when [max_len > length prefix] — the paper's "prefixes in ROAs
    [that] have a maxLength longer than the prefix length". *)

val covers : t -> Netaddr.Pfx.t -> bool
(** [covers v p]: [v.prefix] covers [p] (RFC 6811 "Covered"). Ignores
    maxLength and origin. *)

val matches : t -> Netaddr.Pfx.t -> Asnum.t -> bool
(** RFC 6811 "Matched": covered, [length p <= max_len], origin equals
    [v.asn], and [v.asn] is not AS0. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Rendered like ["168.122.0.0/16-24 AS111"]; the ["-24"] is omitted
    when maxLength equals the prefix length. *)

module Set : Set.S with type elt = t
