module Vset = Rpki.Vrp.Set

type freshness = No_data | Fresh | Stale | Expired

type phase =
  | Down of { retry_at : int option }
  | Awaiting_response
  | Transfer
  | Settled

type stats = {
  syncs : int;
  full_resyncs : int;
  violations : int;
  timeouts : int;
  disconnects : int;
}

type t = {
  initial_backoff : int;
  max_backoff : int;
  response_timeout : int;
  mutable phase : phase;
  mutable session : int option;
  mutable serial : int32 option;
  mutable installed : Vset.t; (* committed state *)
  mutable staging : Vset.t; (* state being built during a transfer *)
  mutable outbox : Pdu.t list;
  mutable want_disconnect : bool;
  mutable suspect : bool; (* transport reported damage around a commit *)
  mutable exchange_full : bool; (* the in-flight exchange began with Reset Query *)
  (* Interval state, all in virtual milliseconds. [last_eod] anchors
     the freshness clock; the intervals come from the most recent End
     of Data PDU (RFC 8210 §6). *)
  mutable last_eod : int option;
  mutable refresh_ms : int;
  mutable retry_ms : int;
  mutable expire_ms : int;
  mutable refresh_at : int option; (* next scheduled refresh query, when Settled *)
  mutable deadline : int option; (* response timeout for the in-flight exchange *)
  mutable backoff : int;
  mutable stats : stats;
}

let default_interval_ms i32 fallback =
  let s = Int32.to_int i32 in
  if s <= 0 then fallback else if s > 86_400 then 86_400_000 else s * 1000

let create ?(initial_backoff = 500) ?(max_backoff = 8_000) ?(response_timeout = 5_000) () =
  { initial_backoff = max 1 initial_backoff;
    max_backoff = max 1 max_backoff;
    response_timeout = max 1 response_timeout;
    phase = Down { retry_at = None };
    session = None;
    serial = None;
    installed = Vset.empty;
    staging = Vset.empty;
    outbox = [];
    want_disconnect = false;
    suspect = false;
    exchange_full = false;
    last_eod = None;
    refresh_ms = 3_600_000;
    retry_ms = 600_000;
    expire_ms = 7_200_000;
    refresh_at = None;
    deadline = None;
    backoff = max 1 initial_backoff;
    stats = { syncs = 0; full_resyncs = 0; violations = 0; timeouts = 0; disconnects = 0 } }

let vrps t = t.installed
let serial t = t.serial
let synced t = match t.phase with Settled -> true | Down _ | Awaiting_response | Transfer -> false
let is_connected t = match t.phase with Down _ -> false | Awaiting_response | Transfer | Settled -> true
let want_disconnect t = t.want_disconnect
let stats t = t.stats

let freshness t ~now =
  match t.serial, t.last_eod with
  | None, _ | _, None -> No_data
  | Some _, Some eod ->
    (* Suspect data is treated as already expired: the router must not
       route on it, however recent the last End of Data was. *)
    if t.suspect || now - eod >= t.expire_ms then Expired
    else if now - eod >= t.refresh_ms then Stale
    else Fresh

let usable t ~now =
  match freshness t ~now with Fresh | Stale -> true | No_data | Expired -> false

let send t pdu = t.outbox <- t.outbox @ [ pdu ]

let pending t =
  let out = t.outbox in
  t.outbox <- [];
  out

let reconnect_at t =
  match t.phase with
  | Down { retry_at } -> retry_at
  | Awaiting_response | Transfer | Settled -> None

let next_wakeup t =
  match t.phase with
  | Down { retry_at } -> retry_at
  | Awaiting_response | Transfer -> t.deadline
  | Settled -> t.refresh_at

(* The query that resumes where we left off: incremental when we hold
   a (session, serial) pair, full Reset Query otherwise. *)
let resume_query t =
  match t.session, t.serial with
  | Some session_id, Some serial -> Pdu.Serial_query { session_id; serial }
  | _, _ -> Pdu.Reset_query

let begin_exchange t ~now query =
  t.phase <- Awaiting_response;
  t.exchange_full <- (match query with Pdu.Reset_query -> true | _ -> false);
  t.deadline <- Some (now + t.response_timeout);
  t.refresh_at <- None;
  send t query

(* RFC 8210 §5.10/§8: Cache Reset or a session-id change means our
   incremental state is useless — forget (session, serial) and start a
   full reload. The installed set is kept until the reload lands, so
   the router keeps forwarding on its last good data (graceful
   restart) instead of flushing mid-recovery. *)
let full_resync t ~now =
  t.session <- None;
  t.serial <- None;
  t.staging <- Vset.empty;
  t.stats <- { t.stats with full_resyncs = t.stats.full_resyncs + 1 };
  begin_exchange t ~now Pdu.Reset_query

let connected t ~now =
  t.want_disconnect <- false;
  t.staging <- Vset.empty;
  begin_exchange t ~now (resume_query t)

let disconnected t ~now =
  (* Anything queued or half-transferred dies with the connection. *)
  t.outbox <- [];
  t.staging <- Vset.empty;
  t.deadline <- None;
  t.refresh_at <- None;
  t.want_disconnect <- false;
  (* Exponential backoff, capped both by [max_backoff] and by the
     cache-advertised retry interval (the RFC's spacing between failed
     attempts); reset to [initial_backoff] on the next clean sync. *)
  let delay = min t.backoff t.retry_ms in
  t.phase <- Down { retry_at = Some (now + max 1 delay) };
  t.backoff <- min t.max_backoff (t.backoff * 2);
  t.stats <- { t.stats with disconnects = t.stats.disconnects + 1 }

(* A protocol violation by the cache. Per RFC 8210 §5.11 the router
   reports the error and terminates the connection; recovery is a
   reconnect with backoff, not a crash. The [Error] return is
   observability for the caller — the machine has already arranged its
   own recovery. *)
let violation t ~code ~pdu msg =
  t.stats <- { t.stats with violations = t.stats.violations + 1 };
  (* The offending PDU is echoed back verbatim inside the report: a
     one-off encode of a single PDU, not fan-out serving. *)
  send t (Pdu.Error_report { code; erroneous_pdu = (Pdu.encode pdu [@lint.encode_ok]); message = msg });
  t.want_disconnect <- true;
  t.staging <- Vset.empty;
  t.deadline <- None;
  Error msg

let touch_deadline t ~now = t.deadline <- Some (now + t.response_timeout)

(* The transport detected stream damage around a commit (RTR itself
   has no integrity check — RFC 8210 leans entirely on the transport).
   Whatever was committed can no longer be trusted: flag the data as
   degraded ({!freshness} reads [Expired]) and forget the (session,
   serial) pair so the next connection does a full reload, which is
   the only way the suspicion clears. *)
let poisoned t =
  t.suspect <- true;
  t.session <- None;
  t.stats <- { t.stats with full_resyncs = t.stats.full_resyncs + 1 }

let receive t ~now pdu =
  match pdu with
  | Pdu.Serial_query _ | Pdu.Reset_query ->
    violation t ~code:Pdu.Invalid_request ~pdu "router received a query PDU"
  | Pdu.Serial_notify { session_id; serial } ->
    (match t.phase with
     | Settled ->
       (match t.session, t.serial with
        | Some sess, Some cur when sess = session_id ->
          if Serial.gt serial cur then
            begin_exchange t ~now (Pdu.Serial_query { session_id = sess; serial = cur });
          Ok ()
        | _, _ ->
          (* Session changed under us: resync from scratch. *)
          full_resync t ~now;
          Ok ())
     | Awaiting_response | Transfer ->
       (* Notifies during a transfer are ignored (we'll learn the new
          serial at the next sync anyway). *)
       Ok ()
     | Down _ -> Error "Serial Notify without a connection")
  | Pdu.Cache_response { session_id } ->
    (match t.phase with
     | Awaiting_response ->
       (match t.session with
        | Some sess when sess <> session_id ->
          (* RFC 8210 §5.4: session mismatch on an incremental sync
             means our data is stale; drop and restart. *)
          full_resync t ~now;
          Ok ()
        | Some _ | None ->
          t.session <- Some session_id;
          (* A full reload builds the set from scratch; an incremental
             delta applies on top of the committed state. *)
          t.staging <- (if t.exchange_full then Vset.empty else t.installed);
          t.phase <- Transfer;
          touch_deadline t ~now;
          Ok ())
     | Transfer | Settled ->
       violation t ~code:Pdu.Corrupt_data ~pdu "Cache Response outside a query"
     | Down _ -> Error "Cache Response without a connection")
  | Pdu.Prefix { flags; vrp } ->
    (match t.phase with
     | Transfer ->
       touch_deadline t ~now;
       (* [Vset.add] of a present element and [Vset.remove] of an
          absent one return the set physically unchanged: one
          traversal both tests membership and applies the PDU. *)
       (match flags with
        | Pdu.Announce ->
          let next = Vset.add vrp t.staging in
          if next == t.staging then
            violation t ~code:Pdu.Duplicate_announcement_received ~pdu
              "duplicate announcement received"
          else begin
            t.staging <- next;
            Ok ()
          end
        | Pdu.Withdraw ->
          let next = Vset.remove vrp t.staging in
          if next == t.staging then
            violation t ~code:Pdu.Withdrawal_of_unknown_record ~pdu
              "withdrawal of unknown record"
          else begin
            t.staging <- next;
            Ok ()
          end)
     | Awaiting_response | Settled ->
       violation t ~code:Pdu.Corrupt_data ~pdu "Prefix PDU outside a transfer"
     | Down _ -> Error "Prefix PDU without a connection")
  | Pdu.End_of_data { session_id; serial; refresh_interval; retry_interval; expire_interval } ->
    (match t.phase with
     | Transfer when t.session = Some session_id ->
       t.installed <- t.staging;
       t.serial <- Some serial;
       t.phase <- Settled;
       t.deadline <- None;
       t.last_eod <- Some now;
       t.refresh_ms <- default_interval_ms refresh_interval t.refresh_ms;
       t.retry_ms <- default_interval_ms retry_interval t.retry_ms;
       t.expire_ms <- default_interval_ms expire_interval t.expire_ms;
       t.refresh_at <- Some (now + t.refresh_ms);
       t.backoff <- t.initial_backoff;
       (* A completed full reload replaced everything we held, so any
          earlier suspicion about the committed state is settled. *)
       if t.exchange_full then t.suspect <- false;
       t.stats <- { t.stats with syncs = t.stats.syncs + 1 };
       Ok ()
     | Transfer -> violation t ~code:Pdu.Corrupt_data ~pdu "End of Data with wrong session id"
     | Awaiting_response | Settled ->
       violation t ~code:Pdu.Corrupt_data ~pdu "End of Data outside a transfer"
     | Down _ -> Error "End of Data without a connection")
  | Pdu.Cache_reset ->
    (match t.phase with
     | Awaiting_response ->
       full_resync t ~now;
       Ok ()
     | Transfer | Settled -> violation t ~code:Pdu.Corrupt_data ~pdu "Cache Reset outside a query"
     | Down _ -> Error "Cache Reset without a connection")
  | Pdu.Error_report { code; message; _ } ->
    (* §5.11: never answer an error with an error. The exchange is
       dead; ask the transport to drop the connection and retry. *)
    t.want_disconnect <- true;
    t.staging <- Vset.empty;
    t.deadline <- None;
    Error (Format.asprintf "cache reported %a: %s" Pdu.pp_error_code code message)

let tick t ~now =
  match t.phase with
  | Down _ -> ()
  | Awaiting_response | Transfer ->
    (match t.deadline with
     | Some d when now >= d ->
       (* Dead exchange: the cache (or the wire) went silent mid-query.
          Drop the connection; [disconnected] schedules the retry. *)
       t.deadline <- None;
       t.want_disconnect <- true;
       t.stats <- { t.stats with timeouts = t.stats.timeouts + 1 }
     | Some _ | None -> ())
  | Settled ->
    (match t.refresh_at with
     | Some r when now >= r -> begin_exchange t ~now (resume_query t)
     | Some _ | None -> ())
