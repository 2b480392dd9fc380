(** Arena sanitizer switch and violation reporting.

    The arena stores trade handle safety for speed: a handle is a bare
    int, and nothing stops a caller from indexing a freed slot, a slot
    recycled after {!Itrie.reset}, or one store's handle into another
    store. The static rules (lint R11–R13) catch the patterns a type
    checker can see; this module is the dynamic backstop — ASan for
    the arena.

    When enabled ({b at store creation time}: each store captures the
    flag in [create]), every store widens its handles with a
    generation tag, bumps generations on free/reset, poisons freed
    prefix chunks, and checks bounds, liveness and generation in every
    public accessor. A violation raises {!Violation} with the store
    name, operation, offending handle and the generations involved.

    Enabled by the [ARENA_SANITIZE] environment variable ("1", "true",
    "on" or "yes"), or programmatically for tests via {!set_enabled}.
    When disabled the stores skip all tagging: handles are raw indices
    and the accessors cost exactly what they did before the sanitizer
    existed. *)

exception Violation of string

val enabled : unit -> bool
(** The current flag — consulted by store constructors, not per
    operation. *)

val set_enabled : bool -> unit
(** Override the environment setting (tests). Only stores created
    {e after} the call are affected. *)

val tag : gen:int array -> int -> int
(** [tag ~gen i] widens raw index [i] to the public handle
    [(gen.(i) + 1) lsl 32 lor i]; a negative [i] (the null handle)
    passes through. *)

val check :
  store:string -> op:string -> gen:int array -> mark:int array -> used:int -> int -> int
(** Decode a handle into its raw index, checking bounds ([< used]),
    liveness ([mark.(i) < 0] marks a freed slot) and, when the handle
    carries tag bits, its generation against [gen.(i)]. Untagged raw
    indices get the first two checks only.
    @raise Violation with a [store.op: handle 0x…: detail] message. *)

val poison : int
(** Written over the prefix chunks of freed slots so a raw read of a
    recycled slot is recognizable in diffs and dumps (0xDEADBEEF). *)
