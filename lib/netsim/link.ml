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
   that slice or straddle segments materialize fresh bytes. *)
let chunk_out t segments total =
  let segs = Array.of_list segments in
  let si = ref 0 and soff = ref 0 in
  (* Skip empty segments so the cursor always sits on real bytes. *)
  let rec settle () =
    if !si < Array.length segs && !soff = String.length segs.(!si) then begin
      incr si;
      soff := 0;
      settle ()
    end
  in
  let remaining = ref total in
  while !remaining > 0 do
    settle ();
    let size =
      (* hi is clamped to lo so the draw range is valid by
         construction even under a misconfigured chunk_max < chunk_min *)
      let lo = max 1 t.policy.Fault.chunk_min in
      let hi = max lo t.policy.Fault.chunk_max in
      min !remaining (Rng.int_in t.rng lo hi)
    in
    let cur = segs.(!si) in
    let chunk =
      if size <= String.length cur - !soff then begin
        (* Within one segment: share the whole string when the chunk
           covers it, else slice. *)
        let c =
          if !soff = 0 && size = String.length cur then cur else String.sub cur !soff size
        in
        soff := !soff + size;
        c
      end
      else begin
        (* Straddles a segment boundary: gather from the cursor. *)
        let b = Buffer.create size in
        let need = ref size in
        while !need > 0 do
          settle ();
          let cur = segs.(!si) in
          let take = min (String.length cur - !soff) !need in
          Buffer.add_substring b cur !soff take;
          soff := !soff + take;
          need := !need - take
        done;
        Buffer.contents b
      end
    in
    schedule_chunk t chunk;
    remaining := !remaining - size
  done

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
    else chunk_out t segments total
  end

let send t data = send_segments t [ data ]
