(** BGP-4 UPDATE message encoding (RFC 4271, with RFC 6793 four-octet
    AS paths and RFC 4760 multiprotocol attributes for IPv6).

    One [update] value corresponds to one UPDATE message: some
    withdrawn prefixes and some announced prefixes sharing a single set
    of path attributes. The decoder is strict and total, and both
    directions are round-trip property-tested. *)

type update = {
  withdrawn : Netaddr.Pfx.t list;
  announced : Netaddr.Pfx.t list;
      (** All prefixes must share [as_path]. IPv4 prefixes travel in
          the classic NLRI field, IPv6 ones in MP_REACH_NLRI. *)
  as_path : Rpki.Asnum.t list;  (** Empty for a pure withdrawal. *)
}

val routes : update -> Bgp.Route.t list
(** The announced prefixes as individual routes. *)

val of_route : Bgp.Route.t -> update
(** An UPDATE announcing exactly one route. *)

val encode : update -> string
(** Full wire message including the 19-byte BGP header.
    @raise Invalid_argument if announcements are present with an empty
    AS path, or the message would exceed the 4096-byte BGP limit. *)

val decode : string -> (update, string) result

val max_message_size : int
(** 4096, per RFC 4271 §4. *)
