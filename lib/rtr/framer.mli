(** Incremental RTR stream decoding.

    A real cache↔router connection is a TCP byte stream: PDUs arrive
    split and coalesced arbitrarily. The framer buffers input chunks
    and yields each PDU exactly once, as soon as its last byte is in.
    Its work is linear in the bytes fed, however the stream is cut:
    whole PDUs are decoded in place from the chunk, and only a PDU
    that straddles chunks is buffered.

    Framing errors (bad version, bad length, unknown type…) are
    terminal for the connection, as RFC 8210 §10 requires: after an
    [Error] the framer refuses further input. *)

type t

val create : unit -> t

val feed : t -> string -> (Pdu.t list, string) result
(** Add a chunk (possibly empty, possibly many PDUs, possibly the
    middle third of one) and return the PDUs completed by it. *)

val pending_bytes : t -> int
(** Bytes buffered awaiting the rest of a PDU. *)

val failed : t -> string option
(** The terminal error, if one occurred. *)
