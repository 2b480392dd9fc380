(** Per-call fork-join over OCaml 5 domains (stdlib [Domain] and
    [Atomic] only — no domainslib).

    Nothing stays resident. A call over [n] items at [d > 1] domains
    spawns [min d n - 1] helper domains; the helpers and the caller
    claim contiguous chunks of the input (up to four per domain, so a
    slow chunk never serialises the rest) from one atomic counter, and
    the caller joins every helper before it returns or raises. At
    [d <= 1] or [n <= 1] a call is exactly [Array.map] and spawns
    nothing.

    Determinism: results are delivered by input index, so
    {!parallel_map} returns what [Array.map] returns, at any domain
    count and under any scheduling.

    Exceptions: the exception raised is always the one [Array.map]
    would raise — the lowest-indexed failing item's, with its
    backtrace. On the parallel path it is re-raised only after every
    item has run.

    Nesting: a task may itself call {!parallel_map} or
    {!parallel_tasks}; each call spawns and joins its own helpers. *)

val parallel_map : ?domains:int -> f:('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map. [?domains] counts the caller (default
    {!default_domains}[ ()]; clamped to [[1, 128]]). *)

val parallel_tasks : ?domains:int -> (unit -> 'a) list -> 'a list
(** Heterogeneous fork-join: each thunk is one item of
    {!parallel_map}; results come back in input order. *)

val default_domains : unit -> int
(** The [RPKI_DOMAINS] environment variable when set to a positive
    integer, else [Domain.recommended_domain_count ()]. [1] means
    "stay sequential". *)
