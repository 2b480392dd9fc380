(** The trusted local cache of Figure 1, as a component.

    Owns the relying-party side end to end: validate every configured
    repository (the five RIRs, in deployment), flatten with
    [scan_roas], compress with [compress_roas] — §7.1's "drop-in
    alternative" pipeline — and feed the result to an RPKI-to-Router
    cache server that connected routers sync from. *)

type t

val create : Rpki.Repository.t list -> t
(** A cache over the given publication points, validated once.
    {!Compress.run} (in {!Compress.Strict} mode) runs between scan_roas
    and the router feed. *)

val server : t -> Rtr.Cache_server.t
(** The RTR endpoint; hand it to {!Rtr.Session.connect}. *)

val vrps : t -> Rpki.Vrp.t list
(** What is currently being served. *)
