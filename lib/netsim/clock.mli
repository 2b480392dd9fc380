(** Virtual time and the discrete-event queue.

    The simulator's heart: a monotone clock in virtual milliseconds
    and a queue of [(time, callback)] events. Events at equal times
    run in scheduling (FIFO) order, so a run is a pure function of the
    schedule — no wall clock, no thread interleaving — which is what
    makes every simulation replayable from its seed. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time (ms). Starts at 0. *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Schedule a callback; times in the past are clamped to [now]. *)

val next_time : t -> int option
(** Time of the earliest pending event. *)

val run_next : t -> bool
(** Advance to the earliest event and run it (one event only); false
    when the queue is empty. Callbacks may schedule further events. *)

val advance : t -> int -> unit
(** Move the clock forward to the given time without running anything
    (no-op when not in the future). Used to reach timer deadlines that
    fall in event-queue gaps. *)

val executed : t -> int
(** Number of events run so far. *)

(** A bucketed timer wheel over the clock, for workloads with very
    many coarse timers (one wakeup per simulated router session).
    Scheduling and draining are O(1) amortized — the alternative at
    100k sessions is an O(n) scan of every timer per drive-loop
    iteration. Entries are plain integers (the caller packs whatever
    identity it needs); there is one bucket per virtual ms, so an
    entry fires at its exact deadline and never lands behind the drain
    cursor. Within a bucket, entries fire in insertion (FIFO) order —
    determinism is preserved. Stale entries are expected: callers
    deduplicate with a generation check at fire time and simply
    re-schedule. *)
module Wheel : sig
  type clock := t
  type t

  val create : clock -> t
  (** A wheel read against the given clock. *)

  val schedule : t -> time:int -> int -> unit
  (** Enroll an entry to fire once [time] is reached. Times in the
      past are clamped to now (firing on the next {!advance}). *)

  val next_due : t -> int option
  (** Earliest bucket deadline with a pending entry. *)

  val advance : t -> (int -> unit) -> unit
  (** Fire every entry in buckets due at or before the clock's current
      time, oldest bucket first, FIFO within a bucket. Entries
      scheduled by the callback land in later buckets and may fire in
      the same drain if already due. *)
end
