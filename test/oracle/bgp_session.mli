(** A BGP peering session state machine (RFC 4271 §8, simplified).

    Transport-agnostic and clock-explicit: the caller feeds decoded
    messages in ({!receive}), drains messages to send ({!pending}),
    and advances a logical clock ({!tick}) that drives keepalive
    generation and hold-timer expiry. TCP events are out of scope —
    the state machine starts at what RFC 4271 calls OpenSent.

    Protocol errors never raise: they queue the appropriate
    NOTIFICATION, drop the session to Idle, and clear routes learned
    from the peer, exactly as a router would. *)

type config = {
  asn : Rpki.Asnum.t;
  bgp_id : Netaddr.Ipv4.t;
  hold_time : int;  (** Proposed hold time, seconds (>= 3, or 0 for none). *)
}

type state = Idle | Open_sent | Open_confirm | Established

val state_to_string : state -> string

type t

val create : config -> t
val state : t -> state
val established : t -> bool

val start : t -> unit
(** Begin actively: queues our OPEN (Idle → OpenSent). No-op in any
    other state. *)

val receive : t -> Bgp_msg.t -> unit
(** Process one message from the peer. *)

val tick : t -> seconds:int -> unit
(** Advance the logical clock: emits KEEPALIVEs every third of the
    negotiated hold time and tears the session down (NOTIFICATION,
    Hold Timer Expired) when the peer has been silent too long. *)

val pending : t -> Bgp_msg.t list
(** Drain the messages to put on the wire. *)

val announce : t -> Bgp.Route.t -> (unit, string) result
(** Queue an UPDATE announcing the route; fails unless Established. *)

val withdraw : t -> Netaddr.Pfx.t -> (unit, string) result

val routes_in : t -> Bgp.Route.t list
(** Adj-RIB-In: routes currently learned from the peer (cleared on
    session teardown). Routes whose path contains our own AS are
    dropped on input (loop prevention). *)

val peer : t -> Bgp_msg.open_msg option
(** The peer's OPEN parameters, once seen. *)

val negotiated_hold_time : t -> int option

val last_error : t -> string option
(** Why the session last fell back to Idle, if it did. *)
