(** An in-memory cache↔router session.

    Wires a {!Cache_server} to one or more {!Router_client}s through
    the real wire encoding: every PDU crosses the "link" as bytes and
    is re-decoded on the other side, so the full protocol stack is
    exercised even in unit tests. Responses travel as the cache's
    shared encode-once segments ({!Cache_server.handle_wire}) — the
    cache never re-serializes per router. Pumping is synchronous and
    deterministic. *)

type t

val connect : Cache_server.t -> int -> t
(** [connect cache n] attaches [n] routers and runs their initial
    synchronization. *)

val routers : t -> Router_client.t list

val publish : t -> Rpki.Vrp.t list -> unit
(** Update the cache's VRP set and pump the resulting notify/query
    exchange until every router is synced again. *)

val pump : t -> unit
(** Deliver all in-flight PDUs until quiescent.
    @raise Failure on a protocol violation — which the tests treat as
    a bug. *)

val bytes_on_wire : t -> int
(** Total encoded PDU bytes moved since the session started, in both
    directions. *)
