(** Fault-injected RTR deployments: one cache, N routers, hostile links.

    Builds the full stack — [Rtr.Cache_server] and [Rtr.Router_client]
    joined by {!Link}s that re-chunk, delay, reorder, duplicate,
    truncate, corrupt and drop, with a fresh [Rtr.Framer] pair per
    connection incarnation — and runs a scripted sequence of VRP
    publications against it on the virtual {!Clock}.

    Everything is derived from one integer seed through split
    {!Rng} streams, so a run is replayable bit-for-bit: same seed and
    policy, same {!Trace} fingerprint, same outcomes.

    The serving plane is encode-once: responses and notifies travel as
    [Rtr.Cache_server]'s shared wire segments, shipped by reference
    through {!Link.send_segments}, and router wakeups ride a bucketed
    {!Clock.Wheel} instead of a per-event scan — which is what lets
    one simulated cache drive 10k–100k concurrent sessions.

    The correctness contract a run is judged against (the acceptance
    sweep): when the simulation ends, every router whose data has not
    expired holds exactly the cache's current VRP set; routers that
    could not sync within the expire interval are in an explicit
    degraded state ([Expired], or [No_data] if they never completed a
    first sync); and nothing anywhere raised. *)

type config = {
  routers : int;  (** Router count (default 4; capped at ~1M). *)
  trace : bool;
      (** Record the event trace (default true). Scale runs (10k+
          sessions) turn it off: the trace text would dominate memory,
          and with it the replay fingerprint is not available. *)
  script : Rpki.Vrp.t list list option;
      (** Publish exactly these VRP sets, in order, instead of the
          seed-derived synthetic script of 20 sets (default [None]).
          This is how live churn reaches the wire: test_churn feeds
          each timeline transition's incrementally-maintained
          compressed set here, so the RTR fan-out serves real deltas. *)
}
(** Everything else about the deployment is fixed: publications are
    400 ms apart, the cache starts at serial [0xFFFF_FFF0] and
    advertises refresh 3 s, retry 2 s and expire 20 s, and the run
    ends 26 s after the last publication. *)

val default_config : config

type router_outcome = {
  router : int;
  freshness : Rtr.Router_client.freshness;
  synced : bool;  (** Settled (no exchange in flight) at end time. *)
  vrps_ok : bool;  (** Installed set equals the cache's current set. *)
  serial : int32 option;
  reconnects : int;  (** Connection incarnations beyond the first. *)
  first_final : int option;
      (** Virtual time from which the router held the final set
          continuously; [None] if it never (or not at the end) did.
          [first_final - last_publish] is the router's time-to-Fresh
          after the last serial bump. *)
  client : Rtr.Router_client.stats;
}

type report = {
  seed : int;
  policy : string;
      (** The fault policy's name — or the joined names when a [mix]
          was supplied. *)
  ok : bool;
      (** The acceptance predicate: every router is either degraded
          ([Expired] / [No_data]) or holds the cache's current set. *)
  outcomes : router_outcome list;
  publishes : int;  (** Serial-bumping updates (no-op updates excluded). *)
  final_serial : int32;
  end_time : int;  (** Virtual ms simulated. *)
  last_publish : int;  (** Virtual time of the final scripted publication. *)
  events : int;  (** Clock events executed. *)
  converged_at : int option;
      (** Earliest virtual time by which every eventually-converged
          router already held the final set. *)
  link : Link.stats;  (** Both directions, all connection incarnations. *)
  framer_errors : int;
  cache_stats : Rtr.Cache_server.stats;
      (** Encode-once accounting: [delta_encodes] must equal
          [publishes] whatever the router count — test_netsim
          asserts this on a 1,000-session fleet. *)
  trace_events : int;
  fingerprint : string;  (** {!Trace.fingerprint} — the determinism witness. *)
  trace : string;  (** Full event trace, for debugging a failing seed. *)
}

val run : ?config:config -> ?mix:Fault.t list -> seed:int -> policy:Fault.t -> unit -> report
(** Simulate one deployment. Total: never raises, whatever the policy
    does to the wire. When [mix] is non-empty, router [i] gets policy
    [List.nth mix (i mod length mix)] and [policy] is unused —
    heterogeneous fleets are how the scale bench exercises fast and
    slow sessions against one shared cache. *)

val pp_report : Format.formatter -> report -> unit
(** One-line summary (no trace). *)
