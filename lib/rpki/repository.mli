(** An in-memory RPKI publication point with a relying-party validator.

    Mirrors the structure of Figure 1's left-hand side: a trust anchor
    certifies per-registry CAs, CAs certify member CAs or sign ROAs
    (each ROA carried by a one-time end-entity certificate, as in
    RFC 6488 signed objects), and every CA publishes a manifest of its
    signed objects so tampering and withholding are detectable.

    The relying party ({!validate}) performs the full walk — signature
    chain, resource containment (RFC 6487), payload within its
    certificate, manifest completeness — and returns the validated ROA
    set plus a diagnostic for every rejected object. The local cache
    then feeds the validated set to {!Scan_roas}.

    One containment rule holds throughout: a CA holds the prefixes and
    AS numbers its certificate lists, and the trust anchor also holds
    every AS number. *)

type t
(** A publication point rooted at one trust anchor. *)

type handle
(** An issuing CA within the repository. *)

val create : ?ta_height:int -> seed:string -> string -> t
(** [create ~seed name] is a fresh repository whose trust anchor is
    called [name]. [ta_height] bounds how many certificates the trust
    anchor can sign (default 8, i.e. 256). [seed] makes all key
    material deterministic. *)

val trust_anchor_key_digest : t -> string
(** What relying parties pin out of band (a TAL, in deployment terms). *)

val root : t -> handle

val add_ca :
  t ->
  parent:handle ->
  name:string ->
  resources:Netaddr.Pfx.t list ->
  as_resources:Asnum.t list ->
  ?height:int ->
  unit ->
  (handle, string) result
(** Certify a child CA. Fails when the name is taken, the parent's key
    is exhausted or the requested resources exceed the parent's. (An
    over-claiming CA can still be forced in with {!add_ca_unchecked} to
    exercise the validator's rejection path.) *)

val add_ca_unchecked :
  t ->
  parent:handle ->
  name:string ->
  resources:Netaddr.Pfx.t list ->
  as_resources:Asnum.t list ->
  ?height:int ->
  unit ->
  handle

val issue_roa : t -> handle -> Roa.t -> (string, string) result
(** Publish a ROA as a signed object under the given CA; returns the
    object's publication name. The CA must hold the ROA's prefixes and
    its asID, and keep a signature in reserve for its manifest. *)

val issue_roa_unchecked : t -> handle -> Roa.t -> string
(** Publish without the issuer-side resource check, to test that the
    relying party rejects it. *)

val issue_aspa : t -> handle -> Aspa.t -> (string, string) result
(** Publish an ASPA attestation as a signed object under the given CA,
    which must hold the customer AS number. *)

val issue_router_cert :
  t -> handle -> Asnum.t -> string -> (string, string) result
(** Publish an RFC 8209-style BGPsec router certificate binding the
    given public key to an AS number the CA holds. Relying parties
    collect the validated bindings in
    {!outcome.valid_router_keys} — the key material
    {!Bgp.Bgpsec.verifier_of_list} consumes. *)

val object_names : t -> string list
val object_count : t -> int

val object_bytes : t -> string -> (string, string) result
(** The raw published DER of the named object — what a relying party
    fetches; parseable with {!Signed_object.decode}. *)

val advance_time : t -> int -> unit
(** Move the repository's logical clock forward. Manifests carry a
    [thisUpdate, nextUpdate] window in this clock; once it passes, the
    relying party treats the CA's publication point as unreliable and
    rejects its objects. *)

val tamper_manifest : t -> handle -> (unit, string) result
(** Flip a byte in the CA's current signed manifest; validation must
    then reject everything the CA publishes. *)

val revoke : t -> string -> (unit, string) result
(** The issuing CA revokes the named object: its EE certificate's
    serial goes on the CA's CRL and the relying party must reject the
    object from then on — how an operator retires a ROA (e.g. a
    non-minimal one being replaced). *)

val tamper : t -> string -> (unit, string) result
(** Flip a byte in the named object's payload, simulating repository
    compromise; validation must then reject it. *)

val drop_from_manifest : t -> string -> (unit, string) result
(** Remove the named object from its CA's manifest (withholding
    attack); validation must flag it. *)

type rejection = { object_name : string; reason : string }

type outcome = {
  valid_roas : Roa.t list;
  valid_aspas : Aspa.t list;
  valid_router_keys : (Asnum.t * string) list;
      (** Validated (AS, BGPsec router public key) bindings. *)
  rejections : rejection list;
  missing_from_manifest : string list;
      (** Manifest entries with no matching published object. *)
}

val validate : t -> outcome
(** The relying-party walk over everything published.

    Every object goes through one check, in order: its CA's chain, its
    CA's manifest (listed, same digest), the per-kind profile chosen by
    file extension ([.cer] a router certificate, [.asa] an ASPA,
    anything else a ROA: decode, signature, payload within its
    certificate), that certificate within the CA, and the CA's CRL.

    Each CA's certificate chain is checked once per call: the verdict
    is shared by the CA's manifest, every object it publishes and its
    descendant CAs, so each certificate signature is verified at most
    once per walk. No verdict is kept across calls: any change between
    two calls (a CA replaced through {!add_ca_unchecked}, a {!revoke},
    a {!tamper}, an {!advance_time}) is seen by the second. *)

val size_on_wire : t -> int
(** Total bytes of all published objects — certificates, manifests,
    signatures — for the repository-size accounting in the benches. *)
