(** RPKI-to-Router protocol data units (RFC 8210, protocol version 1).

    These are the messages a trusted local cache uses to push the
    validated (prefix, maxLength, origin AS) list to routers — the
    right-hand side of the paper's Figure 1. Encoding is big-endian
    binary, exactly as on the wire; the decoder is total (returns
    [Error], never raises) and is fuzzed in the test suite. *)

type flags = Announce | Withdraw

type error_code =
  | Corrupt_data
  | Internal_error
  | No_data_available
  | Invalid_request
  | Unsupported_protocol_version
  | Unsupported_pdu_type
  | Withdrawal_of_unknown_record
  | Duplicate_announcement_received
  | Unexpected_protocol_version

val pp_error_code : Format.formatter -> error_code -> unit

type t =
  | Serial_notify of { session_id : int; serial : int32 }
  | Serial_query of { session_id : int; serial : int32 }
  | Reset_query
  | Cache_response of { session_id : int }
  | Prefix of { flags : flags; vrp : Rpki.Vrp.t }
      (** Covers both IPv4 Prefix (type 4) and IPv6 Prefix (type 6)
          PDUs; the VRP's address family selects the wire form. *)
  | End_of_data of {
      session_id : int;
      serial : int32;
      refresh_interval : int32;
      retry_interval : int32;
      expire_interval : int32;
    }
  | Cache_reset
  | Error_report of { code : error_code; erroneous_pdu : string; message : string }

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : t -> string
(** Wire bytes of one PDU. Outside [lib/rtr] itself, per-PDU encoding
    is lint-restricted (rule R6): the serving plane must go through
    {!Cache_server}'s shared buffers or {!encode_all}. *)

val encode_into : Buffer.t -> t -> unit
(** Append one PDU's wire bytes to a buffer. [encode pdu] is exactly
    [encode_into] on a fresh buffer, so segments built by repeated
    [encode_into] are byte-identical to the concatenation of
    per-PDU [encode]s. *)

val encode_all : t list -> string
(** One contiguous wire buffer holding the PDUs back to back — a
    single allocation however many PDUs are in the run. *)

val decode : string -> int -> (t * int, string) result
(** [decode buf off] parses one PDU starting at [off]; returns it and
    the offset one past its end. Incomplete input is reported as
    [Error "short ..."] so a stream reader can wait for more bytes. *)

val decode_all : string -> (t list, string) result
(** Parse a whole buffer of back-to-back PDUs. *)

val version : int
(** Protocol version used on the wire (1). *)
