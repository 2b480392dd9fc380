(** Weekly snapshot series for Figure 3.

    The paper aggregates ROAs and BGP tables weekly from 2017-04-13 to
    2017-06-01 (eight snapshots). This module generates the same
    cadence synthetically: each week's snapshot grows slightly (both
    the routing table and RPKI adoption drift upward, as they did over
    those weeks) and is deterministic in the base seed. *)

type week = { label : string; snapshot : Snapshot.t }

val labels : string list
(** ["4/13"; "4/20"; ...; "6/1"] — the paper's x axis. *)

val generate : ?params:Snapshot.params -> ?domains:int -> seed:int -> unit -> week list
(** Eight snapshots. Table size grows 0.3% a week, matching the
    paper's ~2% growth over the window; week 8 lands on
    [params.pairs_target]. [?domains]
    (default {!Parallel.Pool.default_domains}) spreads the eight weeks
    over that many domains; every week derives a private PRNG stream
    from [seed], so the series is bit-identical at any domain
    count. *)

(** {2 Event stream}

    The live-churn view of the same series: instead of eight
    independent snapshots, the transitions between consecutive weeks
    as {!Rpki.Churn.event} lists — what a cache sees between two
    validation runs. *)

type state = (Netaddr.Pfx.t * Rpki.Asnum.t) list * Rpki.Vrp.t list
(** A snapshot reduced to its churnable content: announced pairs and
    VRPs, both sort_uniq'd into canonical order. *)

val state_of : Snapshot.t -> state

val diff : prev:state -> next:state -> Rpki.Churn.event list
(** Events turning [prev] into [next]: [Remove_vrp]s, then
    [Withdraw]s, then [Add_vrp]s, then [Announce]s, each block in
    canonical order — removals first so the intermediate states never
    exceed either endpoint. Total and deterministic; inputs need not
    be sorted or duplicate-free. *)
