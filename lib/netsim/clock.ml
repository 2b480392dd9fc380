(* Events keyed by (time, sequence number): the map's order is the
   execution order, and the sequence number makes same-time events
   FIFO — the whole simulator's determinism rests on this ordering
   being total and stable. *)
module Q = Map.Make (struct
  type t = int * int

  let compare (t1, s1) (t2, s2) =
    match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

type t = {
  mutable now : int;
  mutable seq : int;
  mutable q : (unit -> unit) Q.t;
  mutable executed : int;
}

let create () = { now = 0; seq = 0; q = Q.empty; executed = 0 }
let now t = t.now

let at t ~time f =
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  t.q <- Q.add (time, t.seq) f t.q

let after t ~delay f = at t ~time:(t.now + max 0 delay) f

let next_time t =
  match Q.min_binding_opt t.q with
  | Some ((time, _), _) -> Some time
  | None -> None

let run_next t =
  match Q.min_binding_opt t.q with
  | None -> false
  | Some (((time, _) as key), f) ->
    t.q <- Q.remove key t.q;
    if time > t.now then t.now <- time;
    t.executed <- t.executed + 1;
    f ();
    true

let advance t time = if time > t.now then t.now <- time

let run_until t time =
  let rec go () =
    match Q.min_binding_opt t.q with
    | Some ((e, _), _) when e <= time ->
      ignore (run_next t);
      go ()
    | Some _ | None -> ()
  in
  go ();
  advance t time
let pending t = Q.cardinal t.q
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
