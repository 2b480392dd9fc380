(** Merkle multi-use signatures (MSS) over {!Lamport} one-time keys.

    A key pair with height [h] can sign up to [2^h] messages. The public
    key is the Merkle-tree root over the [2^h] Lamport public keys; each
    signature carries the one-time signature, the leaf public key, the
    leaf index and the authentication path to the root.

    This stands in for RSA in the simulated RPKI: certificate authorities
    and ROA signers hold MSS keys, so objects are verified against a key
    certified up a chain to a trust anchor — the same structure as
    RFC 6487/6488, with hash-based rather than RSA signatures. *)

type secret_key
type public_key = string

type signature

val generate : seed:string -> height:int -> secret_key * public_key
(** Deterministic key pair; [height] in [0, 20].
    @raise Invalid_argument on a bad height. *)

val capacity : secret_key -> int
(** How many more messages this key can sign. *)

val sign : secret_key -> string -> signature
(** Sign, consuming one leaf. @raise Failure when the key is exhausted. *)

val verify : public_key -> string -> signature -> bool

val signature_size : signature -> int
val encode : signature -> string

val decode : string -> (signature, string) result
(** Strict inverse of {!encode}: the header's leaf index and path length
    must be exactly the lowercase hex digits [encode] writes, so
    [encode (decode s) = s] for every accepted [s]. It copies the
    one-time signature out of [s] as one 16 KiB string, and no
    preimage or hash on its own. *)
