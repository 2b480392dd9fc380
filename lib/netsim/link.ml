type stats = {
  writes : int;
  chunks : int;
  bytes : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  truncated : int;
  corrupted : int;
  tainted : int;
}

type t = {
  clock : Clock.t;
  rng : Rng.t;
  policy : Fault.t;
  deliver : tainted:bool -> string -> unit;
  conn_drop : unit -> unit;
  mutable closed : bool;
  mutable last_delivery : int; (* FIFO floor: a chunk never arrives before its predecessor *)
  mutable dropping : bool; (* conn_drop fault already tripped *)
  (* Stream-integrity bookkeeping (see the .mli on taint): chunks get
     a sequence number at schedule time; a delivery is tainted once
     any damage precedes it in sequence order, or when it arrives out
     of order. *)
  mutable next_seq : int;
  mutable deliver_count : int;
  mutable damage_from : int; (* first seq with damaged bytes; max_int = none *)
  mutable damaged : bool; (* sticky: integrity lost for good *)
  (* The [stats] counters, bumped in place. *)
  mutable writes : int;
  mutable chunks : int;
  mutable bytes : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable truncated : int;
  mutable corrupted : int;
  mutable tainted : int;
}

let create ~clock ~rng ~policy ~deliver ~conn_drop =
  { clock;
    rng;
    policy;
    deliver;
    conn_drop;
    closed = false;
    last_delivery = 0;
    dropping = false;
    next_seq = 0;
    deliver_count = 0;
    damage_from = max_int;
    damaged = false;
    writes = 0;
    chunks = 0;
    bytes = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    truncated = 0;
    corrupted = 0;
    tainted = 0 }

let stats t : stats =
  { writes = t.writes;
    chunks = t.chunks;
    bytes = t.bytes;
    delivered = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
    truncated = t.truncated;
    corrupted = t.corrupted;
    tainted = t.tainted }

let close t = t.closed <- true

let mark_damage t seq = if seq < t.damage_from then t.damage_from <- seq

let flip_byte t chunk =
  let b = Bytes.of_string chunk in
  let i = Rng.int t.rng (Bytes.length b) in
  (* XOR with a non-zero mask guarantees the byte actually changes. *)
  let mask = 1 + Rng.int t.rng 255 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
  Bytes.to_string b

let schedule_delivery t ~seq chunk =
  let p = t.policy in
  let delay =
    Rng.int_in t.rng p.Fault.delay_min (max p.Fault.delay_min p.Fault.delay_max)
    + (if p.Fault.jitter > 0 then Rng.int_in t.rng 0 p.Fault.jitter else 0)
  in
  let time = Clock.now t.clock + max 1 delay in
  let time = if p.Fault.fifo then max time t.last_delivery else time in
  if p.Fault.fifo then t.last_delivery <- time;
  Clock.at t.clock ~time (fun () ->
      if not t.closed then begin
        let tainted = t.damaged || seq >= t.damage_from || seq <> t.deliver_count in
        if tainted then begin
          t.damaged <- true;
          t.tainted <- t.tainted + 1
        end;
        t.deliver_count <- t.deliver_count + 1;
        t.delivered <- t.delivered + 1;
        t.deliver ~tainted chunk
      end)

let schedule_chunk t chunk =
  let p = t.policy in
  t.chunks <- t.chunks + 1;
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  if Rng.bernoulli t.rng p.Fault.drop then begin
    (* The bytes vanish mid-stream: everything after them is damage. *)
    t.dropped <- t.dropped + 1;
    mark_damage t seq
  end
  else begin
    let chunk =
      if Rng.bernoulli t.rng p.Fault.truncate && String.length chunk > 1 then begin
        t.truncated <- t.truncated + 1;
        mark_damage t seq;
        String.sub chunk 0 (1 + Rng.int t.rng (String.length chunk - 1))
      end
      else chunk
    in
    let chunk =
      if Rng.bernoulli t.rng p.Fault.corrupt then begin
        t.corrupted <- t.corrupted + 1;
        mark_damage t seq;
        flip_byte t chunk
      end
      else chunk
    in
    schedule_delivery t ~seq chunk;
    if Rng.bernoulli t.rng p.Fault.duplicate then begin
      (* The surplus copy re-injects bytes the stream already carried. *)
      t.duplicated <- t.duplicated + 1;
      let seq' = t.next_seq in
      t.next_seq <- t.next_seq + 1;
      mark_damage t seq';
      schedule_delivery t ~seq:seq' chunk
    end
  end

(* Chunk the logical write as ONE byte stream: chunk-size draws (and
   therefore per-chunk fault draws) depend only on the total length,
   exactly as if the segments had been concatenated first. Keeping
   the fault statistics independent of how the payload was segmented
   matters — splitting a response into three shared buffers must not
   triple its exposure to per-chunk drops and duplicates. A chunk that
   spans exactly one whole segment is shared by reference; only chunks
   that slice or straddle segments materialize fresh bytes.

   The walk stands at offset [off] of the head of [segs], with
   [remaining] bytes of the write still to chunk. *)
let rec chunk_out t segs off remaining =
  if remaining > 0 then
    match segs with
    | [] -> ()
    | seg :: rest ->
      let len = String.length seg in
      (* Skip exhausted and empty segments: a chunk starts on real bytes. *)
      if off = len then chunk_out t rest 0 remaining
      else begin
        let size =
          (* hi is clamped to lo so the draw range is valid by
             construction even under a misconfigured chunk_max < chunk_min *)
          let lo = max 1 t.policy.Fault.chunk_min in
          let hi = max lo t.policy.Fault.chunk_max in
          min remaining (Rng.int_in t.rng lo hi)
        in
        if size <= len - off then begin
          (* Within one segment: share the whole string when the chunk
             covers it, else slice. *)
          schedule_chunk t (if off = 0 && size = len then seg else String.sub seg off size);
          chunk_out t segs (off + size) (remaining - size)
        end
        else begin
          (* Straddles a segment boundary: gather from the cursor. *)
          let b = Bytes.create size in
          Bytes.blit_string seg off b 0 (len - off);
          gather t b (len - off) rest (remaining - size)
        end
      end

(* Fill the straddling chunk [b], of which [filled] bytes are in, from
   the head of [segs] on; schedule it, then walk on from where it
   ended. *)
and gather t b filled segs remaining =
  match segs with
  | [] -> ()
  | seg :: rest ->
    let need = Bytes.length b - filled in
    let take = min need (String.length seg) in
    Bytes.blit_string seg 0 b filled take;
    if take < need then gather t b (filled + take) rest remaining
    else begin
      schedule_chunk t (Bytes.unsafe_to_string b);
      chunk_out t segs take remaining
    end

let send_segments t segments =
  let total = List.fold_left (fun acc s -> acc + String.length s) 0 segments in
  if (not t.closed) && total > 0 then begin
    t.writes <- t.writes + 1;
    t.bytes <- t.bytes + total;
    (* The connection-drop fault is evaluated once per write: the
       write itself is lost with the connection. *)
    if (not t.dropping) && Rng.bernoulli t.rng t.policy.Fault.conn_drop then begin
      t.dropping <- true;
      t.conn_drop ()
    end
    else chunk_out t segments 0 total
  end

let send t data = send_segments t [ data ]
