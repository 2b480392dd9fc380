(* The event queue is a binary min-heap over three parallel columns:
   entry [i] is ([times.(i)], [seqs.(i)], [fns.(i)]). Entries compare
   by time, then by sequence number, so same-time events run FIFO —
   the whole simulator's determinism rests on this order being total
   and stable. The columns keep the keys unboxed: an insert or a pop
   allocates nothing unless the columns have to grow. *)
type t = {
  mutable now : int;
  mutable seq : int;
  mutable times : int array;
  mutable seqs : int array;
  mutable fns : (unit -> unit) array;
  mutable size : int;
  mutable executed : int;
}

let nop () = ()
let initial_capacity = 64

let create () =
  { now = 0;
    seq = 0;
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    fns = Array.make initial_capacity nop;
    size = 0;
    executed = 0 }

let now t = t.now

let grow t =
  let n = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.fns <- extend t.fns nop

(* Does entry [i] run before the entry (time, seq)? *)
let before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let put t i time seq f =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.fns.(i) <- f

let move t ~src ~dst = put t dst t.times.(src) t.seqs.(src) t.fns.(src)

(* Sift a hole at [i] up until (time, seq) fits there. *)
let rec sift_up t i time seq f =
  if i = 0 then put t 0 time seq f
  else
    let p = (i - 1) / 2 in
    if before t p time seq then put t i time seq f
    else begin
      move t ~src:p ~dst:i;
      sift_up t p time seq f
    end

(* Sift a hole at [i] down until (time, seq) fits there. *)
let rec sift_down t i time seq f =
  let l = (2 * i) + 1 in
  if l >= t.size then put t i time seq f
  else
    let c = if l + 1 < t.size && before t (l + 1) t.times.(l) t.seqs.(l) then l + 1 else l in
    if before t c time seq then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq f
    end
    else put t i time seq f

let at t ~time f =
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time t.seq f

let next_time t = if t.size = 0 then None else Some t.times.(0)

let run_next t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and f = t.fns.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then sift_down t 0 t.times.(last) t.seqs.(last) t.fns.(last);
    (* A stale closure in the vacated slot would keep its chunk alive. *)
    t.fns.(last) <- nop;
    if time > t.now then t.now <- time;
    t.executed <- t.executed + 1;
    f ();
    true
  end

let advance t time = if time > t.now then t.now <- time

let executed t = t.executed

(* A bucketed timer wheel for workloads with very many coarse timers
   (one per simulated router session): O(1) schedule, O(1) amortized
   drain, versus the O(n) scan-all-timers fold the simulator used at
   small scale. One bucket per virtual ms, so entries fire at their
   exact deadline; within a bucket, entries fire in insertion (FIFO)
   order, preserving determinism. *)
module Wheel = struct
  type clock = t

  type nonrec t = {
    clock : clock;
    mutable slots : int list array; (* per-bucket entries, reverse insertion order *)
    mutable cursor : int; (* first bucket not yet drained *)
    (* Scan cache for [next_due]: every bucket in [cursor, probe) is
       empty. Unlike the cursor it is provisional — scheduling an
       earlier entry pulls it back. Conflating the two would clamp
       later-scheduled-but-earlier-due entries (a retry enrolled while
       a long deadline is pending) forward to the far bucket and fire
       them arbitrarily late. *)
    mutable probe : int;
    mutable count : int;
  }

  let create clock =
    { clock;
      slots = Array.make 256 [];
      cursor = 0;
      probe = 0;
      count = 0 }

  let ensure t slot =
    if slot >= Array.length t.slots then begin
      let n = ref (Array.length t.slots) in
      while slot >= !n do
        n := !n * 2
      done;
      let grown = Array.make !n [] in
      Array.blit t.slots 0 grown 0 (Array.length t.slots);
      t.slots <- grown
    end

  let schedule t ~time id =
    (* Never behind the cursor: a bucket is drained at most once. *)
    let slot = max t.cursor (max time (now t.clock)) in
    ensure t slot;
    if slot < t.probe then t.probe <- slot;
    t.slots.(slot) <- id :: t.slots.(slot);
    t.count <- t.count + 1

  let next_due t =
    if t.count = 0 then None
    else begin
      (* count > 0 guarantees a non-empty bucket at or past the
         cursor, and the probe invariant says it is at or past the
         probe; the scan commits only the probe, never the cursor —
         buckets it passes are empty *now* but still in the future,
         and may yet receive entries. *)
      if t.probe < t.cursor then t.probe <- t.cursor;
      while t.slots.(t.probe) = [] do
        t.probe <- t.probe + 1
      done;
      Some t.probe
    end

  let advance t f =
    let deadline = now t.clock in
    let continue = ref true in
    while !continue && t.count > 0 do
      match next_due t with
      | Some due when due <= deadline ->
        (* The probe sits on the first non-empty bucket; every bucket
           before it is empty and now in the past, so the cursor may
           jump straight there — drained and skipped buckets alike can
           never be scheduled into again. *)
        t.cursor <- t.probe;
        let ids = List.rev t.slots.(t.cursor) in
        t.slots.(t.cursor) <- [];
        t.count <- t.count - List.length ids;
        t.cursor <- t.cursor + 1;
        List.iter f ids
      | Some _ | None -> continue := false
    done
end
