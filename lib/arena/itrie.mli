(** Flat-arena Patricia trie: a path-compressed binary prefix trie
    keyed by {!Netaddr.Pfx.t}, with node fields stored column-wise in
    [int array]s. It is the one prefix trie of the production
    libraries.

    Nodes are integer handles; -1 is the null pointer. The payload is a
    caller-defined non-negative int ([value]), which the arena stores
    above this one use as heads of entry chains or packed scalars.
    Handles are stable: growth copies the columns but never renumbers
    a live node. Freed slots are threaded on a freelist through the
    [left] column, marked by [len] = -1, and reused by later
    insertions — {!self_check} audits that the freelist and the
    reachable tree never alias.

    A store allocates only the columns its family and mode read:

    {v
    column        v4 plain  v4 sanitized  v6 plain  v6 sanitized
    c0            yes       yes           yes       yes
    c1 c2 c3      -         -             yes       yes
    len left
    right value   yes       yes           yes       yes
    gen           -         yes           -         yes
    words/node    5         6             8         9
    v}

    An absent column is an empty array, and no walk reads it: a v4 key
    is zero in chunks 1–3, and the trie's walks (and {!node_covers})
    take that zero without a load. {!self_check} audits this census.

    The representation is exposed read-only so sibling hot paths
    (validate, ancestor walks, the compression workers) can traverse
    the columns directly without per-step function calls or closures;
    all mutation goes through the operations below.

    {b Sanitizer.} When {!San.enabled} is set at [create] time, the
    store runs in sanitized mode: it allocates the [gen] column,
    handles carry a generation tag in their upper bits, {!remove} and
    {!reset} bump the per-slot generation and poison the freed prefix
    chunks, and every accessor checks bounds, liveness and generation
    — a handle held across a [reset] or a recycled slot raises
    {!San.Violation} instead of silently reading reused columns.
    Untagged (raw-index) handles are still accepted so internal
    walkers that read the columns directly keep working; they get
    bounds and liveness checks only. In normal mode there is no [gen]
    column, handles are bare indices and the accessors cost exactly
    what they did before the sanitizer existed. *)

type handle = int
(** A node handle. Normally a bare column index; in sanitized stores,
    widened with a generation tag ([(gen + 1) lsl 32 lor index]). Treat
    as opaque: compare only against {!nil} and pass back to the store
    that issued it. *)

type t = private {
  family : Netaddr.Pfx.afi;
  mutable c0 : int array;  (** prefix chunk 0 (most significant 32 bits) *)
  mutable c1 : int array;  (** chunks 1–3: v6 only, empty in a v4 trie *)
  mutable c2 : int array;
  mutable c3 : int array;
  mutable len : int array;  (** prefix length; -1 marks a freed slot *)
  mutable left : int array;  (** left child, or freelist link when freed *)
  mutable right : int array;
  mutable value : int array;  (** payload >= 0, or -1 when unbound *)
  mutable gen : int array;
      (** per-slot generation, bumped on free/reset; sanitized stores
          only, empty otherwise *)
  mutable used : int;  (** high-water mark: all raw indices are < used *)
  mutable free_head : int;
  mutable count : int;  (** number of bound (valued) nodes *)
  san : bool;  (** sanitized mode, captured from {!San.enabled} at creation *)
  name : string;  (** store name reported in {!San.Violation} messages *)
}

val nil : handle
(** The null node handle, -1. *)

val root : handle
(** The permanent /0 sentinel root's handle, 0. It never holds a value
    and is never freed. *)

val create : ?capacity:int -> ?name:string -> Netaddr.Pfx.afi -> t
(** [capacity] (default 64) is the initial number of slots; [name]
    (default ["itrie"]) labels sanitizer violation messages. *)

val capacity_for : int -> int
(** Slots that hold [n] bound prefixes without growing, [2n + 1]: the
    root, the prefixes, and at most one fork per prefix — the size a
    bulk build asks for. *)

val node_covers : t -> int -> c0:int -> c1:int -> c2:int -> c3:int -> len:int -> bool
(** Raw node [i]'s prefix covers the key ({!Pfx_key.covers}), reading
    only the chunks the family stores. *)

val afi : t -> Netaddr.Pfx.afi
val cardinal : t -> int
(** Number of bound prefixes. *)

val capacity : t -> int
(** Current column length (slots, not bound prefixes). *)

val probe : t -> Netaddr.Pfx.t -> handle
(** Find-or-create the node for this exact prefix and return its
    handle; the value is untouched (a fresh node starts unbound).
    @raise Invalid_argument on a family mismatch. *)

val probe_chunks : t -> c0:int -> c1:int -> c2:int -> c3:int -> len:int -> handle
(** {!probe} on an already-decomposed key ({!Pfx_key}). *)

val find : t -> Netaddr.Pfx.t -> handle
(** Handle of the node storing exactly this prefix (bound or fork), or
    {!nil}. *)

val live_index : t -> handle -> int
(** Decode a handle into a raw column index, running the sanitizer
    checks when the store is sanitized — the bridge for column-walking
    code that received a tagged handle.
    @raise San.Violation on a dead, stale or out-of-bounds handle. *)

val value : t -> handle -> int

val set_value : t -> handle -> int -> unit
(** Bind a payload (>= 0) to a node handle.
    @raise Invalid_argument on a negative payload. *)

val override_value : t -> handle -> int -> unit
(** Like {!set_value} but also accepts -1, unbinding the node {e
    without} contraction — for scratch tries whose structure is
    discarded wholesale. The compress walk uses it both ways: it
    unbinds covered nodes on the way down, and on the way back up a
    merge raises a parent and unbinds the children it absorbs. *)

val reset : t -> unit
(** Rewind to the empty state, keeping the allocated columns for
    reuse. Every previously-issued handle is invalidated. Cost is
    proportional to the previous population; no allocation — the
    scratch-trie recycling primitive for workers that process many
    small groups. *)

val remove : t -> Netaddr.Pfx.t -> bool
(** Unbind the prefix's value, contract any resulting pass-through
    node and put its slot on the freelist. Returns whether a value was
    removed. *)

val subtree_root : t -> Netaddr.Pfx.t -> handle
(** Topmost node whose subtree holds exactly the stored prefixes the
    query covers, or {!nil}. *)

val prefix_at : t -> handle -> Netaddr.Pfx.t
(** Rebuild the boxed prefix of a live node — view-layer only;
    allocates. *)

val fold_bound : t -> init:'a -> f:('a -> handle -> 'a) -> 'a
(** In-order (address, then length) fold over bound node handles. *)

val self_check : t -> (unit, string) result
(** Audit every structural invariant: the column census above (each
    column the family and mode read is exactly {!capacity} long, every
    other one empty), reachable nodes are live and visited once,
    interior valueless nodes are forks, children extend their parent,
    the freelist is disjoint from the tree, marked free, and together
    they account for every allocated slot, and [count] matches the
    valued-node census. In sanitized stores, additionally audits that
    every freelist slot saw a generation bump. *)
