(** RFC 1982 serial number arithmetic for RTR serials.

    RTR serial numbers (RFC 8210 §5.2 points at RFC 1982) live on a
    32-bit circle: after [0xFFFFFFFF] comes [0]. Comparing them with
    signed [Int32.compare] is wrong near the wrap — a cache at serial
    [0x00000001] would look *older* than a router at [0xFFFFFFFE] and
    the pair would fall into a Cache Reset loop instead of exchanging
    a two-update delta. Every serial comparison in [lib/rtr] goes
    through this module. *)

val compare : int32 -> int32 -> int
(** RFC 1982 ordering: [a] precedes [b] when [(b - a) mod 2^32] is in
    [(0, 2^31)]. The RFC leaves the exact half-circle distance
    ([2^31]) undefined; we deterministically treat [a] as less than
    [b] in that case (both orders are equally "wrong", this one keeps
    [compare] antisymmetric for distances below the half circle, which
    is the only regime a correctly-operating cache can produce — the
    delta history is far shorter than [2^31] updates). *)

val equal : int32 -> int32 -> bool
val gt : int32 -> int32 -> bool
val leq : int32 -> int32 -> bool

val succ : int32 -> int32
(** Next serial on the circle; [succ 0xFFFFFFFFl = 0l]. *)

val add : int32 -> int -> int32
(** Move along the circle; negative offsets move backwards. *)
