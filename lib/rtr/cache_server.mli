(** The cache side of the RPKI-to-Router protocol.

    Holds the current validated VRP set, a monotonically increasing
    serial (RFC 1982 arithmetic — it wraps from [0xFFFFFFFF] to [0]
    without forcing a reset), and a bounded history of per-serial
    deltas so routers can sync incrementally with Serial Query; a
    query too far in the past gets a Cache Reset, forcing the router
    to start over (RFC 8210 §5 and §8).

    {b Encode-once fan-out.} Every serial's payload is serialized
    exactly once: [update] encodes the delta's Prefix PDU run into one
    immutable wire segment at bump time; the full-snapshot encoding is
    materialized lazily on the first Reset Query after a bump; and a
    multi-serial catch-up is squashed into a minimal diff segment on
    the first Serial Query at that serial, then shared. {!handle_wire}
    answers queries as a list of those shared segments plus tiny
    cached header / End of Data tails, so serving N sessions costs
    O(PDUs) encode work, not O(N × PDUs). A serial bump clears the
    snapshot and the squashed diffs; a delta segment is dropped when
    its serial falls out of history. Either is reclaimed once no
    in-flight response still references it. See DESIGN.md §11. *)

type t

val create :
  ?history_limit:int ->
  ?initial_serial:int32 ->
  ?refresh_interval:int32 ->
  ?retry_interval:int32 ->
  ?expire_interval:int32 ->
  Rpki.Vrp.t list ->
  t
(** A cache whose starting state is the given VRP set at
    [initial_serial] (default 0 — nonzero values exist for wraparound
    tests and for resuming a persisted cache). [history_limit] bounds
    how many past deltas are kept (default 16). The three intervals
    (seconds) are advertised to routers in every End of Data PDU;
    defaults are RFC 8210's suggested 3600/600/7200. Every cache
    serves session id [0x5eed]. *)

val session_id : t -> int
val serial : t -> int32
val vrps : t -> Rpki.Vrp.Set.t

val oldest_serial : t -> int32
(** The oldest serial whose state is still reconstructable from the
    retained deltas (equals [serial] while the history is empty).
    Tracked explicitly on every update — never recomputed from the
    history length. *)

val state_at : t -> int32 -> Rpki.Vrp.Set.t option
(** The VRP set held at a given serial, rolled back through the
    retained deltas; [None] once the serial has been evicted (or never
    existed, or lies in the future). Total across the RFC 1982 wrap. *)

val update : t -> Rpki.Vrp.t list -> Pdu.t option
(** Replace the VRP set. If nothing changed, the serial stays put and
    no notification is due; otherwise the serial increments, the
    delta's wire segment is encoded (exactly once, whatever the
    session count), and the returned [Serial Notify] should be sent to
    every connected router.

    Canonical input — strictly ascending in [Rpki.Vrp.compare], as
    [Rpki.Vrp.Set.elements], [Rpki.Churn.compressed] and
    [Mlcore.Compress.run] produce — is diffed against the previous set
    in one merge walk, where a tuple physically shared with the
    previous input costs one pointer compare. Any other list (unordered,
    duplicates) is sorted and deduplicated first. *)

val end_of_data : t -> Pdu.t
(** The End of Data PDU that closes every response at the current
    serial: session id, serial and the three advertised intervals. *)

val handle_wire : t -> Pdu.t -> string list
(** The response to one router query, per RFC 8210, as wire buffer
    segments:
    - [Reset Query] → Cache Response, the full set, End of Data;
    - [Serial Query] at a serial in history → Cache Response, the
      minimal squashed diff from that serial's state to the current
      one (one announce or withdraw per VRP that actually changed,
      however many serials the window spans), End of Data;
    - [Serial Query] at this serial → empty delta response;
    - [Serial Query] for an unknown session or evicted serial →
      Cache Reset;
    - [Error Report] → [[]] (§5.11 forbids answering an error with
      an error; the transport should drop the connection);
    - anything else → Error Report (Invalid Request).

    Prefix PDUs come announcements first, then withdrawals, each in
    descending [Rpki.Vrp.compare] order. All segments except an Error
    Report payload are shared, immutable and cached — callers must
    treat them as read-only and may fan the very same strings out to
    any number of sessions. The test oracle [Oracle.Cache_ref] builds
    the same responses as PDU values from {!state_at} and
    {!end_of_data}, and a property test holds the two byte-identical. *)

val notify_wire : t -> string
(** The current serial's Serial Notify, encoded once per bump and
    shared across the whole fan-out. *)

type stats = {
  delta_encodes : int;  (** Delta payload serializations — exactly one per {!update}. *)
  merge_encodes : int;
      (** Multi-serial catch-up serializations — at most one per
          retained serial per bump (lazy, memoized, independent of the
          session count). The dominant one-serial-back refresh reuses
          the update-time delta segment and never lands here. *)
  snapshot_encodes : int;  (** Full-set serializations — at most one per serial bump. *)
  snapshot_reuses : int;  (** Reset Queries answered from the cached snapshot. *)
  wire_responses : int;  (** {!handle_wire} calls that produced a response. *)
}

val stats : t -> stats

val retained_bytes : t -> int
(** Total bytes of cached wire segments currently held (history
    segments, snapshot, header and End of Data / notify tails). The
    retention tests pin this down: it must not grow once the history
    window is full and update sizes are steady. *)
