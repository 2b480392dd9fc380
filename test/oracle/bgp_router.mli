(** A message-level BGP speaker: sessions + decision process + RIB.

    Where {!Topology.Propagate} computes routing outcomes analytically,
    a {!Bgp_router} network reaches them the way real routers do — BGP
    messages over {!Bgp_session}s, Adj-RIB-In per peer, best-path selection
    under Gao–Rexford preferences, export filtering, and optional
    origin validation at import. test_router runs both on the same
    topologies and checks they agree, which is why this model exists.

    Deterministic and single-threaded: {!Network.run} pumps messages
    until quiescence. *)

type t

val create :
  ?rov:Bgp.Rov.t ->
  asn:Rpki.Asnum.t ->
  unit ->
  t
(** A router for one AS. [rov] installs RFC 6811 drop-invalid filtering
    on import. *)

val asn : t -> Rpki.Asnum.t

val originate : t -> Netaddr.Pfx.t -> unit
(** Add a locally originated prefix (advertised to every peer, subject
    to export filters). *)

val withdraw_origin : t -> Netaddr.Pfx.t -> unit
(** Stop originating a prefix. The next {!Network.run} withdraws it
    from every peer it was advertised to. *)

val set_export_filter : t -> Rpki.Asnum.t -> (Netaddr.Pfx.t -> bool) -> unit
(** Per-neighbor traffic engineering (the paper's §3: "announcing the
    /24 to some neighbors and not others"): only prefixes passing the
    predicate are advertised to that neighbor. Applies on the next
    {!Network.run}. @raise Invalid_argument for an unknown neighbor. *)

val best_route : t -> Netaddr.Pfx.t -> Bgp.Route.t option
(** The route selected for exactly this prefix ([None] when only
    locally originated or unknown). Locally originated prefixes return
    the one-hop route. *)

val forward : t -> Netaddr.Pfx.t -> Bgp.Route.t option
(** Data-plane longest-prefix-match decision for a destination. *)

(** A set of routers plus the full-mesh-of-sessions plumbing between
    the pairs you connect. *)
module Network : sig
  type router = t
  type t

  val create : unit -> t
  val add : t -> router -> unit

  val connect : t -> Rpki.Asnum.t -> Rpki.Asnum.t -> relation:Bgp.Policy.relation ->
    unit
  (** [connect net a b ~relation] opens a BGP session between the two
      routers; [relation] is what [b] is to [a] (e.g. [Customer] when
      [b] pays [a]).
      @raise Invalid_argument for unknown routers or duplicate links. *)

  val run : t -> unit
  (** Pump announcements until no router has anything left to say.
      Call after changing originations. *)

  val router : t -> Rpki.Asnum.t -> router option
  val message_count : t -> int
  (** Total BGP messages delivered since creation. *)
end
