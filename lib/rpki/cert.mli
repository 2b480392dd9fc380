(** Resource certificates for the simulated RPKI.

    A certificate binds a subject name to a public key and a set of IP
    resources, and is signed by its issuer. The chain-of-custody rules
    mirror RFC 6487: a certificate is acceptable only if its resources
    are a subset of its issuer's, all the way up to a trust anchor
    whose key is known out of band.

    Signatures are hash-based ({!Hashcrypto.Merkle}) rather than RSA —
    see DESIGN.md for why this substitution preserves the validation
    structure the paper depends on. *)

type t = {
  subject : string;
  issuer : string;
  serial : int;
  resources : Netaddr.Pfx.t list;  (** IP space this subject may suballocate or attest for. *)
  as_resources : Asnum.t list;  (** AS numbers this subject may attest for (ROA asID check). *)
  pubkey : Hashcrypto.Merkle.public_key;
  signature : string;  (** Encoded issuer signature over every other field, as DER. *)
}

val issue :
  subject:string ->
  serial:int ->
  resources:Netaddr.Pfx.t list ->
  as_resources:Asnum.t list ->
  pubkey:Hashcrypto.Merkle.public_key ->
  issuer_name:string ->
  issuer_key:Hashcrypto.Merkle.secret_key ->
  t
(** Build and sign a certificate. *)

val verify_signature : t -> issuer_pubkey:Hashcrypto.Merkle.public_key -> bool

val holds : t -> resources:Netaddr.Pfx.t list -> as_resources:Asnum.t list -> bool
(** Every listed prefix and AS number is covered by the certificate's
    own resources. *)

val to_der : t -> string
(** Full certificate (TBS + signature) as DER, the form embedded in
    {!Signed_object} envelopes. *)

val of_der : string -> (t, string) result
(** Strict parse; round-trips with {!to_der}. *)
