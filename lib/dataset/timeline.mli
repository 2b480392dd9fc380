(** Weekly snapshot series for Figure 3.

    The paper aggregates ROAs and BGP tables weekly from 2017-04-13 to
    2017-06-01 (eight snapshots). This module generates the same
    cadence synthetically: each week's snapshot grows slightly (both
    the routing table and RPKI adoption drift upward, as they did over
    those weeks) and is deterministic in the base seed. *)

type week = { label : string; snapshot : Snapshot.t }

val labels : string list
(** ["4/13"; "4/20"; ...; "6/1"] — the paper's x axis. *)

val generate : ?params:Snapshot.params -> seed:int -> unit -> week list
(** Eight snapshots. Table size grows 0.3% a week, matching the
    paper's ~2% growth over the window; week 8 lands on
    [params.pairs_target]. Each week is
    [Snapshot.generate ~params:{ params with pairs_target } ~seed ()]
    at its own [pairs_target]: the weeks differ only there, so one run
    of the generator's loop serves all eight ({!Snapshot.series}), and
    each week's table and ROA corpus is built from its prefix of that
    run. *)

(** {2 Event stream}

    The live-churn view of the same series: instead of eight
    independent snapshots, the transitions between consecutive weeks
    as {!Rpki.Churn.event} lists — what a cache sees between two
    validation runs. *)

type state = (Netaddr.Pfx.t * Rpki.Asnum.t) list * Rpki.Vrp.t list
(** A snapshot reduced to its churnable content: announced pairs and
    VRPs, both in canonical order (strictly ascending, so
    duplicate-free). *)

val state_of : Snapshot.t -> state
(** The table's pairs as {!Bgp_table.pairs} lists them (its fold order
    is already canonical, so nothing is sorted) and the corpus's VRPs
    ({!Snapshot.vrps}, canonical too, only checked). *)

val diff : prev:state -> next:state -> Rpki.Churn.event list
(** Events turning [prev] into [next]: [Remove_vrp]s, then
    [Withdraw]s, then [Add_vrp]s, then [Announce]s, each block in
    canonical order — removals first so the intermediate states never
    exceed either endpoint. Total and deterministic; inputs need not
    be sorted or duplicate-free. On canonical sides (every {!state_of}
    result) it is linear: one allocation-free check of each side and
    one merge walk, allocating only the events it returns. A side
    that is not canonical is sort-deduped first. *)
