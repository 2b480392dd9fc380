(** Record-backed origin validation: the pre-arena implementation kept
    as the differential-test oracle and test_arena's "record path".

    Same semantics as {!Validation}; [covering_vrps] is sorted by
    [Vrp.compare] so it compares with [=] against the arena walk. *)

type db

val create : Vrp.t list -> db
val cardinal : db -> int
val validate : db -> Netaddr.Pfx.t -> Asnum.t -> Validation.state
val covering_vrps : db -> Netaddr.Pfx.t -> Vrp.t list
val covering_count : db -> Netaddr.Pfx.t -> int
val vrps : db -> Vrp.t list
val authorized : db -> Netaddr.Pfx.t -> Asnum.t -> bool
