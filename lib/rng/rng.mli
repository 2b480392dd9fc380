(** Deterministic pseudo-random numbers (SplitMix64).

    Every synthetic artefact in this project — BGP tables, ROA corpora,
    AS topologies — is generated through this module from an explicit
    seed, so each experiment is reproducible bit-for-bit. SplitMix64 is
    Steele, Lea & Flood's generator (OOPSLA 2014); it is tiny, fast,
    and passes BigCrush. Not cryptographic — key material comes from
    {!Hashcrypto}, never from here. *)

type t

val create : int -> t
(** A generator seeded from an integer. Equal seeds give equal
    streams. *)

val split : t -> string -> t
(** [split t label] is an independent generator derived from [t]'s
    seed and [label]; streams with different labels are uncorrelated
    and insensitive to how much the parent was used. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument
    when [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi], inclusive on both ends.
    @raise Invalid_argument when [hi < lo]. *)

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte string of uniform bytes — fault
    injection's corruption payloads. @raise Invalid_argument when
    [n < 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** True with the given probability. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success, success probability
    [p]; mean (1-p)/p. *)

val weighted : t -> (int * 'a) list -> 'a
(** Pick by integer weight. @raise Invalid_argument when all weights
    are zero or the list is empty. *)
