(** BGPsec-style AS-path protection (RFC 8205, heavily simplified).

    The paper's setting is "RPKI deployed, BGPsec not": the
    forged-origin subprefix hijack works precisely because nothing
    validates the claim that the attacker neighbors the victim. This
    module implements the counterfactual as an extension experiment.

    Model: every participating AS holds a router key pair, enrolled
    straight into one keystore (in deployment, RFC 8209 router
    certificates in the RPKI bind it to the AS). A route's origin signs
    (prefix, origin, next AS); every subsequent AS signs
    (digest of the previous signature, itself, next AS). Binding each
    signature to the {e intended next hop} is what stops both
    forged-origin announcements and signature replay toward a
    different neighbor.

    Validation walks the chain with the public keys from the router-key
    registry. A forged-origin announcement "p: AS m, AS victim" fails:
    the attacker cannot produce the victim's signature over
    (p, victim, m). *)

type keystore
(** The router-key registry: every enrolled AS's key pair; it both
    signs and verifies. *)

val create_keystore : ?key_height:int -> seed:string -> unit -> keystore
(** [key_height] sets each router key's Merkle height (capacity 2^h
    signatures; default 8). *)

val enroll : keystore -> Rpki.Asnum.t -> unit
(** Idempotent; deterministic keys derived from the keystore seed. *)

val router_pubkey : keystore -> Rpki.Asnum.t -> Hashcrypto.Merkle.public_key option

type signed_route = {
  route : Route.t;  (** Path head = latest signer, last = origin. *)
  target : Rpki.Asnum.t;  (** The neighbor this announcement is addressed to. *)
  signatures : string list;  (** Newest first; one per AS on the path. *)
}
(** Deliberately not abstract: an attacker can put any bytes on the
    wire, so adversarial tests build arbitrary values — {!validate} is
    the only gate that matters. *)

val originate :
  keystore -> prefix:Netaddr.Pfx.t -> origin:Rpki.Asnum.t -> to_:Rpki.Asnum.t ->
  (signed_route, string) result
(** The origin's announcement to its neighbor [to_]. Fails when the
    origin is not enrolled or its key is exhausted. *)

val forward :
  keystore -> signed_route -> by:Rpki.Asnum.t -> to_:Rpki.Asnum.t ->
  (signed_route, string) result
(** AS [by] (which must be the announcement's target) signs and
    propagates to [to_]. *)

val validate : keystore -> signed_route -> (unit, string) result
(** Full chain verification with the registry's keys. *)

val forge_origin :
  keystore -> prefix:Netaddr.Pfx.t -> attacker:Rpki.Asnum.t -> victim:Rpki.Asnum.t ->
  to_:Rpki.Asnum.t -> signed_route
(** What the §4 hijacker can actually construct: the path
    "attacker, victim" with the attacker's own signatures but,
    necessarily, no valid signature from the victim. Exists so tests
    and the demo can show {!validate} rejecting it. *)
