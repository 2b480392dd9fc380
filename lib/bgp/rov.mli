(** Route origin validation at the BGP border (RFC 6811 applied).

    Wraps a {!Rpki.Validation.db} into an import filter: the paper's
    security setting is routers that "drop routes that the RPKI deems
    invalid". An AS without ROV simply has no filter. *)

type t

val create : Rpki.Validation.db -> t

val state_of : t -> Route.t -> Rpki.Validation.state
(** Origin-validate a route (checks its origin AS against the VRPs). *)

val accepts : t -> Route.t -> bool
(** False only for an Invalid route; NotFound routes are accepted, per
    RFC 7115's deployment advice. *)
