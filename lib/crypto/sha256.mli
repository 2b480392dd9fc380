(** SHA-256 (FIPS 180-4), pure OCaml.

    This is the only cryptographic hash used in the project: it backs
    HMAC, the Lamport/Merkle signature scheme, and object digests in the
    simulated RPKI repository. Verified against the NIST CAVS short- and
    long-message vectors, independent known answers at the padding
    boundaries and on all-ones input, and a boxed-array [Int32]
    reference kernel, in the test suite.

    The block function is straight-line code over let-bound [Int32]
    words (the schedule, the working variables and the round constants),
    which ocamlopt keeps unboxed: hashing allocates nothing per 64-byte
    block. {!feed}, {!feed_substring}, {!feed_bytes} and {!feed_digest}
    allocate nothing at all, and a one-shot {!digest} or
    {!digest_concat} allocates only its context and the 32-byte result.
    The block function carries [[@@hot]], so lint rules R7/R8 keep it
    free of syntactic allocation; the test suite measures the rest. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
val feed : ctx -> string -> unit

val feed_substring : ctx -> string -> off:int -> len:int -> unit
(** [feed_substring ctx s ~off ~len] feeds the [len] bytes of [s] from
    [off]. @raise Invalid_argument if they are not within [s]. *)

val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit

val feed_digest : ctx -> string -> off:int -> len:int -> unit
(** [feed_digest ctx s ~off ~len] feeds [ctx] the 32-byte digest of the
    [len] bytes of [s] from [off]: the same as
    [feed ctx (digest (String.sub s off len))], without allocating. The
    message is hashed in scratch that [ctx] owns; one of at most 55
    bytes is one padded block. @raise Invalid_argument if the bytes are
    not within [s]. *)

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
