(** All four BGP-4 message types (RFC 4271 §4), on the wire.

    {!Bgp_wire} handles the UPDATE payload; this module adds OPEN (with the
    RFC 6793 four-octet-AS capability), NOTIFICATION and KEEPALIVE, plus
    the common header framing — everything a {!Bgp_session} needs. *)

type open_msg = {
  version : int;  (** Always 4. *)
  asn : Rpki.Asnum.t;
  hold_time : int;  (** Seconds; 0 disables keepalives (RFC 4271 §4.2). *)
  bgp_id : Netaddr.Ipv4.t;
}

type notification = {
  code : int;
  subcode : int;
  data : string;
}

(** RFC 4271 §4.5 error codes used here. *)

val err_open_message : int
val err_hold_timer_expired : int
val err_fsm : int
val err_cease : int

type t =
  | Open of open_msg
  | Update of Bgp_wire.update
  | Notification of notification
  | Keepalive

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val encode : t -> string
(** Complete message including the 19-byte header. OPEN always carries
    the four-octet-AS capability; the 2-byte My-AS field holds AS_TRANS
    (23456) when the ASN doesn't fit (RFC 6793). *)

val decode : string -> int -> (t * int, string) result
(** Parse one message starting at the offset; returns it and the offset
    one past its end. [Error "short ..."] means more bytes are needed. *)

val decode_all : string -> (t list, string) result
