(* The event queue and the router-timer wheel share one bucket
   structure, [Calendar]: a calendar queue keyed by virtual ms. Both
   hold their payloads (callbacks, wheel entries) in a column of their
   own, indexed by the calendar's slot numbers. *)

(* The window, in ms: wider than every delay the simulator draws (link
   delays up to 800 ms, the 5,000 ms response timeout, the 4,000 ms
   backoff cap), so an entry lands in the overflow only when it is
   scheduled unusually far out. A power of two: a time's ring position
   is [time land mask]. *)
let window = 8192
let mask = window - 1

(* Double [a] to [n] entries, the new ones [fill]. *)
let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A ring of per-millisecond FIFO buckets over the window
   [base, base + window), plus an overflow for entries due at or past
   its end. Every entry occupies a slot; a bucket is a list of slots
   linked through [next] (which also threads the free list), so an
   insert into the window or a pop is O(1) and allocates nothing.

   The overflow is a binary min-heap over three columns, entry [i]
   being ([times.(i)], [seqs.(i)], [slots.(i)]), ordered by (time,
   seq). Each time the base advances, the overflow entries the new
   window covers move into their buckets in heap order. That keeps
   every bucket in scheduling order: a time enters the window once, as
   the base moves past [time - window], and at that moment all its
   entries so far sit in the overflow (a direct insert needs the time
   inside the window) and move over in seq order; every later insert
   at that time comes after them. Entries of one time therefore pop in
   scheduling (FIFO) order, whichever path they took.

   Invariants: every entry is due at or after [base]; a window entry
   sits in the bucket of its own time; every overflow entry is due at
   or after [base + window]; every bucket in [base, probe) is empty.
   The probe caches [next_time]'s scan; an insert before it pulls it
   back. *)
module Calendar = struct
  type t = {
    head : int array; (* per ring position: the bucket's first slot, -1 when empty *)
    tail : int array; (* per ring position: the bucket's last slot *)
    mutable next : int array; (* per slot: the next slot of its bucket or of the free list *)
    mutable free : int; (* first free slot, -1 when none *)
    mutable base : int;
    mutable probe : int;
    mutable in_window : int; (* entries in the ring *)
    mutable times : int array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable size : int; (* entries in the overflow *)
    mutable seq : int;
  }

  let initial_slots = 64

  let create () =
    { head = Array.make window (-1);
      tail = Array.make window (-1);
      next = Array.init initial_slots (fun i -> if i + 1 < initial_slots then i + 1 else -1);
      free = 0;
      base = 0;
      probe = 0;
      in_window = 0;
      times = Array.make initial_slots 0;
      seqs = Array.make initial_slots 0;
      slots = Array.make initial_slots 0;
      size = 0;
      seq = 0 }

  let capacity t = Array.length t.next
  let is_empty t = t.in_window = 0 && t.size = 0

  (* Double the slot column, threading the new slots onto the free
     list (called only when it is empty). *)
  let grow_slots t =
    let n = Array.length t.next in
    let next = extend t.next (2 * n) (-1) in
    for i = n to (2 * n) - 2 do
      next.(i) <- i + 1
    done;
    t.next <- next;
    t.free <- n

  let grow_overflow t =
    let n = 2 * Array.length t.times in
    t.times <- extend t.times n 0;
    t.seqs <- extend t.seqs n 0;
    t.slots <- extend t.slots n 0

  (* Append slot [s] to the bucket of [time], inside the window. *)
  let link t time s =
    let p = time land mask in
    t.next.(s) <- -1;
    if t.head.(p) < 0 then t.head.(p) <- s else t.next.(t.tail.(p)) <- s;
    t.tail.(p) <- s;
    t.in_window <- t.in_window + 1;
    if time < t.probe then t.probe <- time

  (* --- the overflow heap --- *)

  (* Does overflow entry [i] come before the entry (time, seq)? *)
  let before t i time seq =
    let ti = t.times.(i) in
    ti < time || (ti = time && t.seqs.(i) < seq)

  let put t i time seq s =
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.slots.(i) <- s

  let move t ~src ~dst = put t dst t.times.(src) t.seqs.(src) t.slots.(src)

  (* Sift a hole at [i] up until (time, seq) fits there. *)
  let rec sift_up t i time seq s =
    if i = 0 then put t 0 time seq s
    else
      let p = (i - 1) / 2 in
      if before t p time seq then put t i time seq s
      else begin
        move t ~src:p ~dst:i;
        sift_up t p time seq s
      end

  (* Sift a hole at [i] down until (time, seq) fits there. *)
  let rec sift_down t i time seq s =
    let l = (2 * i) + 1 in
    if l >= t.size then put t i time seq s
    else
      let c = if l + 1 < t.size && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1 else l in
      if before t c time seq then begin
        move t ~src:c ~dst:i;
        sift_down t c time seq s
      end
      else put t i time seq s

  let push t time s =
    t.seq <- t.seq + 1;
    if t.size = Array.length t.times then grow_overflow t;
    t.size <- t.size + 1;
    sift_up t (t.size - 1) time t.seq s

  let pop_overflow t =
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then sift_down t 0 t.times.(last) t.seqs.(last) t.slots.(last)

  (* --- the calendar --- *)

  (* Move the window to start at [b]; the caller guarantees that no
     entry is due before [b]. The buckets the window gains held the
     times it leaves, so they are empty when the overflow fills them. *)
  let rebase t b =
    if b > t.base then begin
      t.base <- b;
      if t.probe < b then t.probe <- b;
      let limit = b + window in
      while t.size > 0 && t.times.(0) < limit do
        let time = t.times.(0) and s = t.slots.(0) in
        pop_overflow t;
        link t time s
      done
    end

  (* Enrol an entry due at [time] (at least [base]) and return its
     slot; the caller stores the payload there, growing its column to
     [capacity] when the slot lies past it. *)
  let insert t time =
    let time = if time < t.base then t.base else time in
    if t.free < 0 then grow_slots t;
    let s = t.free in
    t.free <- t.next.(s);
    if time - t.base < window then link t time s else push t time s;
    s
    [@@hot]

  (* The earliest time with a pending entry, or [max_int]. *)
  let next_time t =
    if t.in_window > 0 then begin
      while t.head.(t.probe land mask) < 0 do
        t.probe <- t.probe + 1
      done;
      t.probe
    end
    else if t.size > 0 then t.times.(0)
    else max_int
    [@@hot]

  (* Remove the first entry due at [time], which must be [next_time t],
     and return its slot. The slot is free again at once: read its
     payload before the next insert. *)
  let pop t time =
    rebase t time;
    let p = time land mask in
    let s = t.head.(p) in
    t.head.(p) <- t.next.(s);
    t.next.(s) <- t.free;
    t.free <- s;
    t.in_window <- t.in_window - 1;
    s
    [@@hot]

  let rec chain_length t s n = if s < 0 then n else chain_length t t.next.(s) (n + 1)

  (* Detach the whole bucket due at [time], which must be [next_time t],
     move the window past it, and return its first slot: the bucket's
     slots follow through [release], which frees each one. Entries
     inserted meanwhile land at [time + 1] or later. *)
  let take t time =
    rebase t time;
    let p = time land mask in
    let s = t.head.(p) in
    t.head.(p) <- -1;
    t.in_window <- t.in_window - chain_length t s 0;
    rebase t (time + 1);
    s
    [@@hot]

  (* Free a detached slot and return the one after it, -1 at the end. *)
  let release t s =
    let n = t.next.(s) in
    t.next.(s) <- t.free;
    t.free <- s;
    n
end

type t = {
  cal : Calendar.t;
  mutable fns : (unit -> unit) array; (* per calendar slot: the event's callback *)
  mutable now : int;
  mutable executed : int;
}

let nop () = ()

let create () =
  { cal = Calendar.create (); fns = Array.make Calendar.initial_slots nop; now = 0; executed = 0 }

let now t = t.now

(* The calendar pops equal times in scheduling order, so same-time
   events run FIFO: the whole simulator's determinism rests on this
   order being total and stable. The window starts at the time of the
   last event run, never after [now], so clamping to [now] is the only
   clamp an event sees. *)
let at t ~time f =
  let slot = Calendar.insert t.cal (if time < t.now then t.now else time) in
  if slot >= Array.length t.fns then t.fns <- extend t.fns (Calendar.capacity t.cal) nop;
  t.fns.(slot) <- f

let next_time t = Calendar.next_time t.cal

let run_next t =
  if Calendar.is_empty t.cal then false
  else begin
    let time = Calendar.next_time t.cal in
    let slot = Calendar.pop t.cal time in
    let f = t.fns.(slot) in
    (* A stale closure in the freed slot would keep its chunk alive. *)
    t.fns.(slot) <- nop;
    if time > t.now then t.now <- time;
    t.executed <- t.executed + 1;
    f ();
    true
  end

let advance t time = if time > t.now then t.now <- time

let executed t = t.executed

(* Router wakeups: the same calendar over int payloads. Its window
   starts just past the last drained bucket, which makes the base the
   drain cursor: an entry is never scheduled into a drained bucket. *)
module Wheel = struct
  type clock = t

  type nonrec t = {
    clock : clock;
    cal : Calendar.t;
    mutable ids : int array; (* per calendar slot: the entry *)
  }

  let create clock =
    { clock; cal = Calendar.create (); ids = Array.make Calendar.initial_slots 0 }

  let schedule t ~time id =
    let slot = Calendar.insert t.cal (Int.max time (now t.clock)) in
    if slot >= Array.length t.ids then t.ids <- extend t.ids (Calendar.capacity t.cal) 0;
    t.ids.(slot) <- id

  let next_due t = Calendar.next_time t.cal

  let rec fire t f s =
    if s >= 0 then begin
      let id = t.ids.(s) in
      let rest = Calendar.release t.cal s in
      f id;
      fire t f rest
    end

  let rec drain t f deadline =
    let due = Calendar.next_time t.cal in
    if due <= deadline then begin
      fire t f (Calendar.take t.cal due);
      drain t f deadline
    end

  let advance t f = drain t f (now t.clock)
end
