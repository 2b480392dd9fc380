(** RPKI signed objects (the RFC 6488 template, simplified).

    A signed object carries an encapsulated content (for us: an
    RFC 6482 ROA, identified by its content-type OID), the one-time
    end-entity certificate that signs it, and the signature itself —
    all in one DER blob, which is what a publication point actually
    serves and what a relying party parses before any cryptography
    happens.

    Verification order mirrors RFC 6488 §3: parse, check the content
    type, verify the EE certificate against its issuer, verify the
    object signature under the EE key, then hand the eContent to the
    profile-specific decoder ({!Roa_der}). *)

val roa_content_type : int list
(** id-ct-routeOriginAuthz, 1.2.840.113549.1.9.16.1.24 (RFC 6482). *)

type t = {
  content_type : int list;
  econtent : string;  (** DER of the payload (a RouteOriginAttestation). *)
  ee_cert : Cert.t;
  signature : string;  (** Encoded {!Hashcrypto.Merkle} signature over [econtent]. *)
}

val make :
  content_type:int list ->
  econtent:string ->
  ee_key:Hashcrypto.Merkle.secret_key ->
  ee_cert:Cert.t ->
  t
(** Sign an arbitrary payload into an envelope (used for ROAs and
    manifests). *)

val encode : t -> string
(** The publication-point wire form. *)

val decode : string -> (t, string) result

val verify_envelope :
  t ->
  content_type:int list ->
  issuer_pubkey:Hashcrypto.Merkle.public_key ->
  (string * Cert.t, string) result
(** Generic RFC 6488 §3 checks: content type, EE certificate
    signature, object signature. Returns the verified eContent and EE
    certificate; profile decoding is the caller's. *)

type verified = { roa : Roa.t; ee_cert : Cert.t }

val verify : t -> issuer_pubkey:Hashcrypto.Merkle.public_key -> (verified, string) result
(** {!verify_envelope} for ROAs plus the RFC 6482 profile decode; the
    caller still owns resource-containment policy. *)
