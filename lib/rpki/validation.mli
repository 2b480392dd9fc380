(** BGP prefix origin validation (RFC 6811).

    Builds an indexed database from a VRP list and classifies
    (prefix, origin AS) announcements as Valid, Invalid or NotFound.
    This is the check that stops a subprefix hijack — and the check a
    forged-origin subprefix hijack slips through when a covering
    non-minimal VRP exists. *)

type state =
  | Valid
  | Invalid
  | Not_found
      (** No VRP covers the announced prefix; RFC 6811 calls this
          "NotFound" and routers treat such routes as they did before
          the RPKI. *)

val state_to_string : state -> string
val pp_state : Format.formatter -> state -> unit

type db

val create : Vrp.t list -> db
(** Index a VRP list (duplicates are fine): one sort-dedup
    ({!Canonical.sort_uniq}: a list already in canonical order is only
    checked), then a linear arena build. *)

val cardinal : db -> int
(** Number of distinct VRPs in the database. *)

val add : db -> Vrp.t -> bool
(** Insert one VRP; [false] when already present. *)

val remove : db -> Vrp.t -> bool
(** Withdraw one VRP; [false] when absent. *)

val validate : db -> Netaddr.Pfx.t -> Asnum.t -> state
(** Classify announcement [(prefix, origin)] — one allocation-free
    descent of the arena trie. *)

val covering_vrps : db -> Netaddr.Pfx.t -> Vrp.t list
(** All VRPs whose prefix covers the given one — the candidates RFC 6811
    consults — in canonical [Vrp.compare] order, allocating only the
    result list. *)

val vrps : db -> Vrp.t list
(** The distinct VRPs, in canonical order. *)

val authorized : db -> Netaddr.Pfx.t -> Asnum.t -> bool
(** [authorized db p a] = [validate db p a = Valid]. *)

val self_check : db -> (unit, string) result
(** {!Arena.Vrp_db.self_check} on the underlying arena: audit the
    tries, entry chains and freelist after a run of {!add}/{!remove}
    mutations. *)
