(** The RTR serve path as PDU values: the reference that
    {!Rtr.Cache_server.handle_wire} must match byte for byte.

    Built only on the server's public state ([session_id], [vrps],
    [state_at], [end_of_data]) and performing no caching, it states the
    response order on its own: Cache Response, then the announced
    prefixes, then the withdrawn ones, each in descending
    [Rpki.Vrp.compare] order, then End of Data. *)

val handle : Rtr.Cache_server.t -> Rtr.Pdu.t -> Rtr.Pdu.t list
(** Response PDUs for one router query, per RFC 8210: the full set for
    a Reset Query; the squashed diff from a retained serial's state for
    a Serial Query, or Cache Reset for an unknown session or an evicted
    or future serial; nothing for an Error Report; an Invalid Request
    Error Report for anything else. *)
