(** A unidirectional, fault-injected byte pipe.

    One direction of a simulated TCP connection. [send] re-chunks the
    written bytes per the link's {!Fault.t} policy, applies per-chunk
    faults (drop, duplicate, truncate, corrupt, delay), and schedules
    each surviving chunk's delivery on the {!Clock}. With a FIFO
    policy deliveries never overtake each other (TCP ordering); with a
    non-FIFO one, chunks race and the receiver's framer sees the
    reordered stream.

    {b Taint.} Real RTR rides on a checksummed, sequenced transport:
    lost, reordered, duplicated or corrupted segments never silently
    enter the application byte stream — they surface as a stalled or
    reset connection. The simulator wants both halves of that truth:
    damaged bytes {e are} delivered (so framers and decoders prove
    they survive arbitrary garbage), but every delivery at or after
    the first stream damage is flagged [tainted], which the harness
    treats as the transport detecting the damage — it tears the
    connection down and distrusts anything the tainted bytes may have
    committed. Without this, a corrupted-but-still-valid Prefix PDU
    could silently poison a router's VRP set forever.

    A link is tied to one connection incarnation: {!close} discards
    everything still in flight, and late deliveries of a closed link
    are suppressed — reconnecting means making fresh links. *)

type t

type stats = {
  writes : int;  (** [send] calls. *)
  chunks : int;  (** Chunks scheduled (before faults). *)
  bytes : int;  (** Payload bytes offered to the link. *)
  delivered : int;  (** Chunks actually handed to [deliver]. *)
  dropped : int;
  duplicated : int;
  truncated : int;
  corrupted : int;
  tainted : int;  (** Deliveries flagged as stream damage. *)
}

val create :
  clock:Clock.t ->
  rng:Rng.t ->
  policy:Fault.t ->
  deliver:(tainted:bool -> string -> unit) ->
  conn_drop:(unit -> unit) ->
  t
(** [deliver] receives each arriving chunk at its virtual delivery
    time; [tainted] is true from the first stream damage (a dropped,
    truncated, corrupted or duplicated chunk, or an out-of-order
    arrival) onward. [conn_drop] fires (once, at the current time)
    when the policy's connection-drop fault trips; the owner is
    expected to {!close} both directions and tell the endpoints. *)

val send : t -> string -> unit
(** Write bytes to the pipe. Ignored after {!close}. Empty writes are
    ignored. *)

val send_segments : t -> string list -> unit
(** One logical write whose payload is a list of (typically shared,
    encode-once) wire segments — the simulator's writev. The byte
    stream, the chunk-size draws and the per-chunk fault draws are
    identical to [send] of the segments' concatenation — fault
    exposure must not depend on how a payload was segmented — but the
    concatenation itself never happens: a chunk spanning exactly one
    whole segment is scheduled by reference, and only chunks slicing
    or straddling segments copy bytes. *)

val close : t -> unit
(** Tear the pipe down; in-flight chunks are lost. Idempotent. *)

val stats : t -> stats
