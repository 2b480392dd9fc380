(** The router side of the RPKI-to-Router protocol.

    A transport-agnostic, timer-driven state machine (RFC 8210 §6 and
    §8). The transport — [Rtr.Session]'s perfect in-memory link, or
    [Netsim.Rtr_sim]'s fault-injected one — drives it with five
    inputs, all taking the current virtual time in milliseconds:

    - {!connected} / {!disconnected}: the connection came up / went
      down. On connect the client opens an exchange (incremental
      Serial Query when it holds a (session, serial) pair, Reset Query
      otherwise); on disconnect it schedules a reconnect with
      exponential backoff, capped by the cache-advertised retry
      interval.
    - {!receive}: one decoded PDU from the cache. Total — protocol
      violations never raise. They are reported in the [Error] return
      for observability, but the machine has already queued an Error
      Report PDU and requested a reconnect ({!want_disconnect}).
    - {!tick}: let timers fire — the refresh interval re-opens an
      exchange, the response timeout declares a silent exchange dead.
    - {!pending}: drain the PDUs the client wants sent.

    Data freshness follows the End of Data intervals: younger than the
    refresh interval is [Fresh], then [Stale], and past the expire
    interval the data is [Expired] — an explicit degraded mode (RFC
    8210 §6 allows routing on data up to the expire interval; past it
    the router must stop trusting the set) rather than an exception.
    Each interval is clamped to its own §6 maximum: Refresh 86,400 s,
    Retry 7,200 s, Expire 172,800 s. *)

type t

type freshness = No_data | Fresh | Stale | Expired

type stats = {
  syncs : int;  (** Completed exchanges (End of Data received). *)
  full_resyncs : int;  (** Reset Query fallbacks (Cache Reset / session change). *)
  violations : int;  (** Protocol violations by the cache. *)
  timeouts : int;  (** Exchanges declared dead by the response timeout. *)
}

val create : unit -> t
(** A client with no data, waiting for its first connection. All
    durations are in milliseconds. The reconnect backoff starts at 400,
    doubles per failed connection up to 4,000, and resets on a clean
    sync; a response timeout of 5,000 bounds the silence tolerated
    mid-exchange. The backoff is fixed rather than an argument: only a
    transport that drops connections reads it, and the one such
    transport, [Netsim.Rtr_sim], always ran with these values (its
    pinned replay fingerprints depend on them). The perfect links of
    [Rtr.Session] and of the live-churn fleet never call
    {!disconnected}. *)

val vrps : t -> Rpki.Vrp.Set.t
(** The router's installed VRPs — empty until the first sync ends,
    retained (but flagged by {!freshness}) across reconnects. *)

val serial : t -> int32 option
(** Serial of the last completed sync. *)

val synced : t -> bool
(** True when connected with no exchange in flight. *)

val freshness : t -> now:int -> freshness

val connected : t -> now:int -> unit
(** The transport established a connection; the client queues its
    resume query. *)

val disconnected : t -> now:int -> unit
(** The transport lost (or tore down) the connection; half-finished
    state is dropped and a reconnect is scheduled ({!reconnect_at}). *)

val want_disconnect : t -> bool
(** The client asks the transport to tear the connection down (corrupt
    exchange, error report, response timeout). Cleared by
    {!disconnected} / {!connected}. *)

val reconnect_at : t -> int option
(** When down: the virtual time at which the transport should redial. *)

val poisoned : t -> unit
(** The transport detected stream damage around a commit (the RTR
    protocol has no integrity check of its own — RFC 8210 leans on
    the transport for that). The committed data can no longer be
    trusted: {!freshness} reads [Expired] (an explicit degraded mode)
    and the resume state is dropped, so the next connection performs a
    full reload — the only thing that clears the suspicion. *)

val receive : t -> now:int -> Pdu.t -> (unit, string) result
(** Process one PDU from the cache. [Error] marks a protocol violation
    (e.g. a Prefix PDU outside a Cache Response, a duplicate announce,
    or a withdrawal of an unknown record — RFC 8210 §5.11); recovery
    is already scheduled, the caller needs only to honour
    {!want_disconnect}. *)

val tick : t -> now:int -> unit
(** Fire due timers. Call at (or after) {!next_wakeup}. *)

val next_wakeup : t -> int option
(** The next virtual time at which {!tick} (or a reconnect) has work:
    the reconnect time when down, the response deadline mid-exchange,
    the refresh time when settled. *)

val pending : t -> Pdu.t list
(** PDUs the router wants to send; calling it drains the queue. *)

val stats : t -> stats
