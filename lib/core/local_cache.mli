(** The trusted local cache of Figure 1, as a component.

    Owns the relying-party side end to end: fetch every configured
    repository (the five RIRs, in deployment), validate, flatten with
    [scan_roas], compress with [compress_roas] — §7.1's
    "drop-in alternative" pipeline — and feed the result to an
    RPKI-to-Router cache server that connected routers sync from.

    [refresh] is the periodic re-validation a real cache runs on a
    timer; here the caller drives it explicitly (and advances the
    repositories' logical clocks itself). *)

type t

val create : Rpki.Repository.t list -> t
(** A cache over the given publication points. {!Compress.run} (in
    {!Compress.Strict} mode) runs between scan_roas and the router
    feed. The initial refresh runs immediately. *)

type stats = {
  valid_roas : int;
  rejections : Rpki.Repository.rejection list;  (** Across all repositories. *)
  vrps_scanned : int;  (** Tuples out of scan_roas. *)
  vrps_served : int;  (** After compression. *)
  serial : int32;  (** The RTR serial after this refresh. *)
  changed : bool;
}

val refresh : t -> stats
(** Re-run the whole pipeline; bumps the RTR serial only when the
    served set changed, so connected routers sync exactly the delta. *)

val last_stats : t -> stats
val server : t -> Rtr.Cache_server.t
(** The RTR endpoint; hand it to {!Rtr.Session.connect}. *)

val vrps : t -> Rpki.Vrp.t list
(** What is currently being served. *)
