(** ASPA — Autonomous System Provider Authorization
    (draft-ietf-sidrops-aspa-*, simplified).

    The forged-origin subprefix hijack works because nothing in the
    ROA-only RPKI validates the claimed adjacency "attacker, victim".
    ASPA is the deployed-world answer this paper's line of work led
    to: each AS attests its complete set of providers, and receivers
    verify that an AS_PATH is a plausible customer→provider ramp
    (up-ramp), optionally followed by a provider→customer descent
    (down-ramp) after a single apex.

    With the victim's ASPA on file, the §4 announcement
    "p: AS m, AS victim" is Path-Invalid at every verifying AS — even
    when a non-minimal maxLength ROA makes it origin-Valid. The
    extension experiment in the attack evaluation quantifies this. *)

type t = { customer : Asnum.t; providers : Asnum.t list }
(** One attestation: the complete provider set of [customer].
    An empty provider list attests "I have no providers" (a stub of
    tier-1s only). *)

val make : customer:Asnum.t -> providers:Asnum.t list -> (t, string) result
(** Rejects a customer listed as its own provider and duplicate
    providers (they are normalized to a sorted set). *)

val make_exn : customer:Asnum.t -> providers:Asnum.t list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** DER profile (mirrors the ASProviderAttestation eContent shape). *)

val content_type : int list
(** id-ct-ASPA, 1.2.840.113549.1.9.16.1.49. *)

val encode_econtent : t -> string
val decode_econtent : string -> (t, string) result

(** {1 Path verification} *)

type db
(** Indexed attestation set: at most one provider set per customer
    (multiple attestations for one customer merge, as relying parties
    do). *)

val db_of_list : t list -> db

type received_from =
  | From_customer  (** The announcing neighbor is my customer. *)
  | From_peer
  | From_provider

type state =
  | Path_valid
  | Path_invalid
  | Path_unknown  (** Some hop involves an unattested AS. *)

val pp_state : Format.formatter -> state -> unit

val verify : db -> received_from:received_from -> as_path:Asnum.t list -> state
(** [as_path] is newest-first (head = the announcing neighbor, last =
    origin), the {!Bgp.Route} convention. Upstream rule for routes
    from customers or peers: the whole path must be an up-ramp
    (every hop attested customer→provider where attestations exist;
    any attested non-provider hop is {!Path_invalid}). Downstream rule
    for routes from providers: one apex is allowed — an up-ramp from
    the origin meeting a down-ramp toward the receiver. Duplicate
    adjacent ASes (prepending) are collapsed first. *)
