(** Gao–Rexford routing policy primitives.

    The standard economic model of interdomain routing: an AS prefers
    routes through customers (it gets paid) over routes through peers
    (free) over routes through providers (it pays), and it only
    re-advertises a route to all neighbors when that route came from a
    customer or itself — peer and provider routes are exported to
    customers only. The paper's claims about how a forged-origin
    hijack splits traffic rest on exactly this model (via Lychev et
    al., SIGCOMM'13). *)

type relation =
  | Customer  (** The neighbor is my customer. *)
  | Peer
  | Provider  (** The neighbor is my provider. *)

val flip : relation -> relation
(** The relation as seen from the other end of the link. *)

type learned_from =
  | Self  (** Locally originated. *)
  | From of relation  (** Learned from a neighbor with this relation. *)

val local_pref : learned_from -> int
(** Self > Customer > Peer > Provider. *)

val exports_to : learned_from -> relation -> bool
(** [exports_to lf r]: a route learned via [lf] may be advertised to a
    neighbor whose relation (from my point of view) is [r]. *)

val better :
  learned_from * Route.t -> learned_from * Route.t -> int
(** Deterministic route selection: higher local-pref first, then
    shorter AS path, then lower next-hop AS as the tie-break. Returns
    a negative value when the first route wins. *)
