(** Autonomous-system numbers (RFC 6793 four-byte range). *)

type t = private int
(** The number itself, so the int order is {!compare}'s order. *)

val of_int : int -> t
(** @raise Invalid_argument when outside [0, 2^32 - 1]. *)

val to_int : t -> int

val of_string : string -> (t, string) result
(** Accepts ["64500"] or ["AS64500"] (case-insensitive prefix). *)

val to_string : t -> string
(** Rendered as ["AS64500"]. *)

val zero : t
(** AS0: per RFC 6483/6811, a VRP for AS0 can never make a route valid;
    it is a way of marking a prefix as not to be originated at all. *)

val is_zero : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
