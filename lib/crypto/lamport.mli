(** Lamport one-time signatures over SHA-256.

    A secret key is 2×256 random 32-byte preimages; the public key is
    their hashes. Signing a message reveals, for each bit of the
    message digest, the preimage selected by that bit. Verification
    re-hashes the revealed preimages against the public key.

    A key pair must sign at most one message: signing two different
    messages leaks enough preimages for forgery (demonstrated in the
    test suite). Multi-message signing is provided by {!Merkle}. *)

type secret_key
type public_key = string
(** Public keys are rendered as a single 32-byte digest of the 512
    per-bit hashes, which keeps certified keys small. *)

type signature
(** Held as its 16 KiB wire encoding and read at offsets, so {!decode}
    checks the length and copies nothing, and {!encode} returns it as
    is. *)

val generate : seed:string -> secret_key * public_key
(** Deterministic key generation from a seed (the project has no OS
    entropy source; callers derive seeds from their own PRNG). Distinct
    seeds give independent keys. *)

val sign : secret_key -> string -> signature
(** Sign an arbitrary message (its SHA-256 digest is what's signed). *)

val verify : public_key -> string -> signature -> bool
(** Rebuilds the 512-hash commitment and compares it to the key. Each
    revealed preimage is hashed in the commitment context's own scratch
    ({!Sha256.feed_digest}), so a check allocates only that context,
    the message digest and the commitment, about 100 words. *)

val signature_size : signature -> int
(** Wire size in bytes, for the repository-size accounting. *)

val encode : signature -> string
val decode : string -> (signature, string) result
