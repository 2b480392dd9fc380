(** SHA-256 (FIPS 180-4), pure OCaml.

    This is the only cryptographic hash used in the project: it backs
    HMAC, the Lamport/Merkle signature scheme, and object digests in the
    simulated RPKI repository. Verified against the NIST CAVS short- and
    long-message vectors, independent known answers at the padding
    boundaries and on all-ones input, and a boxed-[Int32] reference
    kernel, in the test suite.

    Every 32-bit word (state, message schedule, working variables) is a
    native [int] holding the word's value masked to 32 bits, never an
    [Int32.t]. Hashing therefore allocates nothing per 64-byte block:
    {!feed} and {!feed_bytes} allocate nothing at all, and a one-shot
    {!digest} or {!digest_concat} allocates only its context and the
    32-byte result. The block function carries [[@@hot]], so lint rules
    R7/R8 keep it that way. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit

val get : ctx -> string
(** Finalize and return the 32-byte digest. The context must not be
    reused afterwards. *)

val digest : string -> string
(** One-shot hash of a string; result is 32 raw bytes. *)

val digest_concat : string list -> string
(** Hash of the concatenation of the given chunks, without building the
    intermediate string. *)

val to_hex : string -> string
(** Lowercase hex rendering of a raw digest (or any raw byte string). *)
