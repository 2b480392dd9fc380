module Vset = Rpki.Vrp.Set

(* The delta recorded at serial [s] transformed state [s-1] into state
   [s]. Keeping both directions lets us roll the current state back to
   any retained serial. *)
type delta = { announced : Vset.t; withdrawn : Vset.t }

(* One retained serial: its delta for rollback, and the delta's Prefix
   PDU run encoded exactly once, at [update] time, into an immutable
   wire segment shared by every response that covers this serial. A
   segment is dropped when its entry falls out of history, and the GC
   reclaims the bytes once no in-flight response references them. *)
type entry = { serial : int32; delta : delta; wire : string }

type stats = {
  delta_encodes : int;
  merge_encodes : int;
  snapshot_encodes : int;
  snapshot_reuses : int;
  wire_responses : int;
}

type t = {
  history_limit : int;
  refresh_interval : int32;
  retry_interval : int32;
  expire_interval : int32;
  mutable serial : int32;
  mutable current : Vset.t;
  mutable listing : Rpki.Vrp.t list; (* = Vset.elements current *)
  mutable history : entry list; (* newest first *)
  mutable history_len : int; (* = List.length history, maintained incrementally *)
  mutable oldest : int32; (* oldest serial whose state is still reconstructable *)
  (* Lazy per-[since] catch-up encodings: the minimal squashed diff
     from a retained serial to the current state, materialized on the
     first Serial Query at that [since] and shared by every later one.
     At most [history_limit] live entries; cleared on every bump. *)
  mutable merged : (int32 * string) list;
  mutable snapshot : string option; (* full-set encoding of the current serial *)
  mutable eod : string option; (* End of Data for the current serial *)
  mutable notify : string option; (* Serial Notify for the current serial *)
  mutable stats : stats;
}

let default_refresh = 3600l
let default_retry = 600l
let default_expire = 7200l

let zero_stats =
  { delta_encodes = 0; merge_encodes = 0; snapshot_encodes = 0; snapshot_reuses = 0;
    wire_responses = 0 }

(* Every cache serves one session id. *)
let session = 0x5eed

(* Cache Response and Cache Reset: one constant wire form each for
   every cache instance. *)
let header_wire = Pdu.encode (Pdu.Cache_response { session_id = session })
let cache_reset_wire = Pdu.encode Pdu.Cache_reset

let create ?(history_limit = 16) ?(initial_serial = 0l) ?(refresh_interval = default_refresh)
    ?(retry_interval = default_retry) ?(expire_interval = default_expire) vrps =
  let current = Vset.of_list vrps in
  { history_limit; refresh_interval; retry_interval; expire_interval;
    serial = initial_serial; current; listing = Vset.elements current; history = [];
    history_len = 0; oldest = initial_serial; merged = []; snapshot = None; eod = None;
    notify = None; stats = zero_stats }

let session_id _ = session
  [@@lint.test_only "read by the test oracle Cache_ref"]
let serial t = t.serial
let vrps t = t.current
let oldest_serial t = t.oldest
  [@@lint.test_only "witness: tests read the retained serial window"]
let stats t = t.stats

let retained_bytes t =
  let opt = function Some w -> String.length w | None -> 0 in
  String.length header_wire
  + List.fold_left (fun acc e -> acc + String.length e.wire) 0 t.history
  + List.fold_left (fun acc (_, w) -> acc + String.length w) 0 t.merged
  + opt t.snapshot + opt t.eod + opt t.notify
  [@@lint.test_only "witness: tests read the retained diff memory"]

(* The PDU run of a delta, prepended onto [tail]: announces then
   withdraws, each in descending [Vrp.compare] order (the set fold's
   reverse). Every encoded segment is built from this one function.
   The test oracle [Oracle.Cache_ref] states the same order on its own,
   and test_rtr holds the two byte-identical. *)
let delta_pdus ~tail { announced; withdrawn } =
  Vset.fold
    (fun v acc -> Pdu.Prefix { flags = Pdu.Announce; vrp = v } :: acc)
    announced
    (Vset.fold (fun v acc -> Pdu.Prefix { flags = Pdu.Withdraw; vrp = v } :: acc) withdrawn tail)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* One merge walk of two canonical lists: tuples only in [next] were
   announced, tuples only in [prev] withdrawn. A tuple both lists
   share physically costs one pointer compare. *)
let rec diff_walk prev next announced withdrawn =
  match (prev, next) with
  | [], [] -> { announced; withdrawn }
  | p :: ps, [] -> diff_walk ps [] announced (Vset.add p withdrawn)
  | [], n :: ns -> diff_walk [] ns (Vset.add n announced) withdrawn
  | p :: ps, n :: ns ->
    if p == n then diff_walk ps ns announced withdrawn
    else
      let c = Rpki.Vrp.compare p n in
      if c = 0 then diff_walk ps ns announced withdrawn
      else if c < 0 then diff_walk ps next announced (Vset.add p withdrawn)
      else diff_walk prev ns (Vset.add n announced) withdrawn

let update t vrps =
  let next = Rpki.Canonical.sort_uniq Rpki.Vrp.compare vrps in
  let delta = diff_walk t.listing next Vset.empty Vset.empty in
  if Vset.is_empty delta.announced && Vset.is_empty delta.withdrawn then None
  else begin
    t.serial <- Serial.succ t.serial;
    t.current <- Vset.union (Vset.diff t.current delta.withdrawn) delta.announced;
    t.listing <- next;
    (* The one and only serialization of this serial's payload, however
       many sessions it will be fanned out to. *)
    let wire = Pdu.encode_all (delta_pdus ~tail:[] delta) in
    t.stats <- { t.stats with delta_encodes = t.stats.delta_encodes + 1 };
    t.history <- { serial = t.serial; delta; wire } :: t.history;
    (* Single bounded take: either the window is full and the oldest
       entry falls off, or the window grows by one. *)
    if t.history_len = t.history_limit then t.history <- take t.history_limit t.history
    else t.history_len <- t.history_len + 1;
    t.oldest <- Serial.add t.serial (-t.history_len);
    t.merged <- [];
    t.snapshot <- None;
    t.eod <- None;
    t.notify <- None;
    Some (Pdu.Serial_notify { session_id = session; serial = t.serial })
  end

(* The retained entries newer than serial [s], newest first — the
   deltas that roll the current state back to [s] — or None when [s]
   is in the future, evicted from history, or never existed. All
   comparisons are RFC 1982 serial arithmetic: the history spans at
   most [history_limit] consecutive serials, far below the half
   circle, so the ordering is well defined even across the
   0xFFFFFFFF -> 0 wrap. *)
let newer_than t s =
  if Serial.gt s t.serial then None
  else
    let rec walk newer = function
      | [] ->
        (* Every retained delta is newer than [s]: it is reachable
           only as the oldest reconstructable serial. *)
        if Serial.equal s t.oldest then Some (List.rev newer) else None
      | (e : entry) :: rest ->
        if Serial.leq e.serial s then Some (List.rev newer) else walk (e :: newer) rest
    in
    walk [] t.history

(* Invert [newer]'s deltas, newest first, starting from the current set. *)
let roll_back t newer =
  List.fold_left
    (fun state (e : entry) -> Vset.union (Vset.diff state e.delta.announced) e.delta.withdrawn)
    t.current newer

let state_at t s = Option.map (roll_back t) (newer_than t s)
  [@@lint.test_only "read by the test oracle Cache_ref"]

let end_of_data t =
  Pdu.End_of_data
    { session_id = session;
      serial = t.serial;
      refresh_interval = t.refresh_interval;
      retry_interval = t.retry_interval;
      expire_interval = t.expire_interval }

(* An incremental response carries the minimal squashed diff between
   the state at [since] and the current state — one announce or
   withdraw per VRP that actually changed, however many serials the
   window spans. Squashing matters beyond tidiness: catch-up
   responses cross the same faulty links as everything else, and
   their failure probability grows with their length. *)
let catch_up_delta t ~since_state =
  { announced = Vset.diff t.current since_state; withdrawn = Vset.diff since_state t.current }

(* --- the encode-once wire path ------------------------------------- *)

let eod_wire t =
  match t.eod with
  | Some w -> w
  | None ->
    let w = Pdu.encode (end_of_data t) in
    t.eod <- Some w;
    w

let notify_wire t =
  match t.notify with
  | Some w -> w
  | None ->
    let w = Pdu.encode (Pdu.Serial_notify { session_id = session; serial = t.serial }) in
    t.notify <- Some w;
    w

(* The full-set encoding is materialized on the first Reset Query
   after a serial bump and reused until the next bump, which clears
   it. *)
let snapshot_wire t =
  match t.snapshot with
  | Some w ->
    t.stats <- { t.stats with snapshot_reuses = t.stats.snapshot_reuses + 1 };
    w
  | None ->
    let w = Pdu.encode_all (delta_pdus ~tail:[] { announced = t.current; withdrawn = Vset.empty }) in
    t.snapshot <- Some w;
    t.stats <- { t.stats with snapshot_encodes = t.stats.snapshot_encodes + 1 };
    w

let count_response t wires =
  t.stats <- { t.stats with wire_responses = t.stats.wire_responses + 1 };
  List.filter (fun w -> String.length w > 0) wires

(* The shared catch-up segment for [since], given the entries [newer]
   than it. Three tiers, none of which scale with the session count: a
   query at the current serial has an empty payload; a query one serial
   back is answered by the newest entry's eagerly-encoded wire (the
   dominant, notify-driven refresh case — its delta *is* the minimal
   diff); anything deeper is a squashed diff encoded on first demand
   and memoized until the next serial bump. Only that first encode
   rolls the state back. *)
let merged_wire t since newer =
  match newer with
  | [] -> ""
  | [ (e : entry) ] -> e.wire
  | _ :: _ :: _ ->
    (match List.find_opt (fun (s, _) -> Serial.equal s since) t.merged with
     | Some (_, w) -> w
     | None ->
       let since_state = roll_back t newer in
       let w = Pdu.encode_all (delta_pdus ~tail:[] (catch_up_delta t ~since_state)) in
       t.merged <- (since, w) :: t.merged;
       t.stats <- { t.stats with merge_encodes = t.stats.merge_encodes + 1 };
       w)

let handle_wire t query =
  match query with
  | Pdu.Reset_query -> count_response t [ header_wire; snapshot_wire t; eod_wire t ]
  | Pdu.Serial_query { session_id; serial = since } ->
    (match (if session_id <> session then None else newer_than t since) with
     | None -> count_response t [ cache_reset_wire ]
     | Some newer -> count_response t [ header_wire; merged_wire t since newer; eod_wire t ])
  | Pdu.Error_report _ ->
    (* RFC 8210 §5.11: never answer an Error Report with an Error
       Report. The error is terminal for the connection; the transport
       layer tears it down, the cache sends nothing. *)
    []
  | other ->
    let wire =
      Pdu.encode
        (Pdu.Error_report
           { code = Pdu.Invalid_request;
             erroneous_pdu = Pdu.encode other;
             message = "cache expected Reset Query or Serial Query" })
    in
    count_response t [ wire ]
