(** SHA-256 on boxed [Int32] arrays, written plainly: the differential
    oracle for {!Hashcrypto.Sha256}, whose kernel is straight-line code
    over unboxed [Int32] lets. Same contract as that module's streaming
    and one-shot functions. *)

type ctx

val init : unit -> ctx
val feed : ctx -> string -> unit
val feed_bytes : ctx -> bytes -> off:int -> len:int -> unit
val get : ctx -> string
val digest : string -> string
val digest_concat : string list -> string
