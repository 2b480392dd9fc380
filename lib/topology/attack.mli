(** Hijack scenarios and traffic-capture metrics (paper §4–§5).

    Runs route propagation for a victim's announcements and an
    attacker's hijack announcement over one AS graph, then asks every
    AS where its traffic for a target address would go. The four
    attack kinds reproduce the paper's taxonomy:

    - {!Prefix_hijack}: attacker originates the victim's exact prefix.
    - {!Subprefix_hijack}: attacker originates an unannounced
      subprefix (what ROAs are designed to stop).
    - {!Forged_origin}: attacker announces the victim's exact prefix
      with the forged path "attacker, victim" — RPKI-valid, but
      traffic splits.
    - {!Forged_origin_subprefix}: the paper's central attack — forged
      path for an unannounced subprefix authorized by a non-minimal
      maxLength ROA; RPKI-valid and unopposed, so longest-prefix match
      hands the attacker everything. *)

type kind =
  | Prefix_hijack
  | Subprefix_hijack of Netaddr.Pfx.t
  | Forged_origin
  | Forged_origin_subprefix of Netaddr.Pfx.t

val kind_to_string : kind -> string

type scenario = {
  graph : As_graph.t;
  victim : Rpki.Asnum.t;
  attacker : Rpki.Asnum.t;
  announced : Netaddr.Pfx.t list;
      (** Prefixes the victim legitimately originates (the hijacked
          prefix's covering prefix must be among them). *)
  vrps : Rpki.Vrp.t list;  (** The RPKI's contents for this experiment. *)
  rov : Rpki.Asnum.t -> bool;  (** Which ASes drop RPKI-invalid routes. *)
  aspas : Rpki.Aspa.db option;
      (** When set, ROV-enabled ASes also drop ASPA Path-Invalid
          announcements — the extension experiment. *)
}

type result = {
  kind : kind;
  hijack_route : Bgp.Route.t;  (** What the attacker announced. *)
  hijack_validity : Rpki.Validation.state;
  to_attacker : int;  (** ASes whose traffic for the target reaches the attacker. *)
  to_victim : int;
  unreachable : int;  (** ASes with no route to the target at all. *)
  measured : int;  (** ASes counted (excludes victim and attacker). *)
}

val capture_fraction : result -> float
(** [to_attacker / measured]. *)

val run : scenario -> kind -> target:Netaddr.Pfx.t -> result
(** Propagate all announcements and measure where traffic for [target]
    (a host prefix inside the victim's space) lands. Each AS forwards
    by longest-prefix match over its selected routes; a route whose
    path contains the attacker counts as intercepted. *)

val baseline : scenario -> target:Netaddr.Pfx.t -> result
(** No attack: sanity reference where every connected AS reaches the
    victim. The [kind] field is meaningless ([Prefix_hijack]) and
    [to_attacker] counts nothing. *)
