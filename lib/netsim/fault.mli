(** Per-link fault policies.

    A policy is a pure description of how a link misbehaves; {!Link}
    draws every decision from the link's own RNG stream, so identical
    seeds replay identical fault sequences. Probabilities are
    per-chunk; delays are per-chunk and in virtual milliseconds.

    Policies are built so that convergence stays *possible*: each
    probability is below 1, so a clean exchange eventually happens and
    the hardened router syncs — or, when the link stays hostile for
    longer than the expire interval, the router drops to its explicit
    degraded mode. Both are acceptable end states; silent corruption
    and uncaught exceptions are not. *)

type t = {
  name : string;
  delay_min : int;  (** Minimum per-chunk transit delay, ms (>= 1 keeps time moving). *)
  delay_max : int;  (** Maximum base transit delay, ms. *)
  jitter : int;  (** Extra random delay in [0, jitter] — only meaningful with [fifo = false]. *)
  fifo : bool;  (** True: delivery order = send order (TCP-like). False: chunks may reorder. *)
  chunk_min : int;  (** Minimum chunk size the link re-chunks writes into. *)
  chunk_max : int;
  drop : float;  (** P(chunk silently lost). *)
  duplicate : float;  (** P(chunk delivered twice). *)
  truncate : float;  (** P(chunk loses its tail). *)
  corrupt : float;  (** P(one byte of the chunk is flipped). *)
  conn_drop : float;  (** P(the connection dies, evaluated once per write). *)
}

val perfect : t
(** In-order, lossless, 1 ms link; one chunk per write. *)

val rechunking : t
(** Lossless and in-order, but writes are shredded into 1–64 byte
    chunks — pure framer exercise; must converge with zero resyncs. *)

val delaying : t
(** In-order but slow (up to 800 ms per chunk) — exercises response
    timeouts against legitimate latency. *)

val reordering : t
(** Chunks race each other (jitter beyond the delay floor). *)

val duplicating : t
(** Chunks may arrive twice. *)

val truncating : t
(** Chunks may lose their tails mid-stream. *)

val corrupting : t
(** Random byte flips. *)

val lossy : t
(** Chunks vanish. *)

val flaky : t
(** Connections drop mid-exchange. *)

val chaos : t
(** Everything at once: loss + corruption + reordering + truncation +
    duplication + connection drops — the acceptance sweep's combined
    policy. *)

val all : t list
(** Every policy above, [perfect] first — the sweep matrix. *)
