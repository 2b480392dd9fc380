(** Record-backed origin validation: the pre-arena implementation, the
    differential oracle for {!Rpki.Validation} and test_arena's
    "record path".

    Same semantics as {!Rpki.Validation}; [covering_vrps] is sorted by
    [Vrp.compare] so it compares with [=] against the arena walk. *)

type db

val create : Rpki.Vrp.t list -> db
val cardinal : db -> int
val validate : db -> Netaddr.Pfx.t -> Rpki.Asnum.t -> Rpki.Validation.state
val covering_vrps : db -> Netaddr.Pfx.t -> Rpki.Vrp.t list
val vrps : db -> Rpki.Vrp.t list
val authorized : db -> Netaddr.Pfx.t -> Rpki.Asnum.t -> bool
