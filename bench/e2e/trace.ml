(* In-memory span recorder for the traced run.

   A span is one call into a layer, recorded from the bench's own code
   around the public entry point it times: its name
   ("<module>.<function>"), the span open when it started (its parent —
   an iteration or transition span), start and end in ns from the
   monotonic clock, the work it did as a count ([count]: queries,
   objects, bytes or PDUs) and, only for spans opened with
   [~words:true] (transition granularity or coarser), the words
   allocated inside it per [Gc.counters]. Per-call timings too fine for
   a span of their own (one [Churn.apply] per event) go into a
   preallocated [series] instead.

   Spans stay in memory and are written out by [write] at exit. While
   [enabled] is false, [span] is a plain call: the untraced run that
   produces the end-to-end metrics pays one branch per wrapped call. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false

type span = {
  name : string;
  parent : int; (* index of the enclosing span, -1 at top level *)
  mutable start : int;
  mutable stop : int;
  mutable units : int;
  mutable words : float; (* nan when not measured *)
}

type series = { sname : string; mutable data : int array; mutable len : int }

let spans = ref [||]
let n_spans = ref 0
let current = ref (-1)
let all_series : series list ref = ref []

let reset () =
  spans := [||];
  n_spans := 0;
  current := -1;
  List.iter (fun s -> s.len <- 0) !all_series

let push s =
  if !n_spans >= Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !n_spans)) s in
    Array.blit !spans 0 grown 0 !n_spans;
    spans := grown
  end;
  !spans.(!n_spans) <- s;
  incr n_spans;
  !n_spans - 1

(* Words allocated so far: minor allocations plus direct major ones
   (promotions are already counted as minor words). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span ?(words = false) name f =
  if not !enabled then f ()
  else begin
    let w0 = if words then allocated_words () else Float.nan in
    let s = { name; parent = !current; start = 0; stop = 0; units = 0; words = Float.nan } in
    let id = push s in
    let saved = !current in
    current := id;
    s.start <- now ();
    let r = f () in
    s.stop <- now ();
    if words then s.words <- allocated_words () -. w0;
    current := saved;
    r
  end

(* Credit [n] units of work to the innermost open span. *)
let count n =
  if !enabled && !current >= 0 then begin
    let s = !spans.(!current) in
    s.units <- s.units + n
  end

let series sname =
  let s = { sname; data = Array.make 4096 0; len = 0 } in
  all_series := s :: !all_series;
  s

let add s ns =
  if !enabled then begin
    if s.len >= Array.length s.data then begin
      let grown = Array.make (2 * s.len) 0 in
      Array.blit s.data 0 grown 0 s.len;
      s.data <- grown
    end;
    s.data.(s.len) <- ns;
    s.len <- s.len + 1
  end

let values s = List.init s.len (fun i -> float_of_int s.data.(i))

(* --- aggregation over the recorded spans --- *)

let recorded () = Array.sub !spans 0 !n_spans
let duration s = s.stop - s.start

let named name = List.filter (fun s -> String.equal s.name name) (Array.to_list (recorded ()))
let durations_ns name = List.map (fun s -> float_of_int (duration s)) (named name)
let total_ns name = List.fold_left (fun acc s -> acc + duration s) 0 (named name)
let total_units name = List.fold_left (fun acc s -> acc + s.units) 0 (named name)
let calls name = List.length (named name)

let total_words name =
  List.fold_left
    (fun acc s -> if Float.is_nan s.words then acc else acc +. s.words)
    0.0 (named name)

(* Self time of every span named [name], summed: duration minus the
   time its direct children cover. Children of one span are sequential
   calls, so they never overlap and their sum is that cover. *)
let self_ns name =
  let all = recorded () in
  let kids = Array.make (Array.length all) 0 in
  Array.iter (fun s -> if s.parent >= 0 then kids.(s.parent) <- kids.(s.parent) + duration s) all;
  let total = ref 0 in
  Array.iteri
    (fun i s -> if String.equal s.name name then total := !total + duration s - kids.(i))
    all;
  !total

(* Share (percent) of the [root] spans' wall time that their named
   child spans account for. *)
let coverage_pct root =
  let whole = total_ns root in
  if whole = 0 then 0.0 else 100.0 *. float_of_int (whole - self_ns root) /. float_of_int whole

(* One JSON object per line: the span table, start and end times
   relative to the first span, then one line per sample series. *)
let write path =
  let all = recorded () in
  let t0 = if Array.length all = 0 then 0 else all.(0).start in
  Out_channel.with_open_text path (fun oc ->
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %d, \"end_ns\": %d, \
             \"units\": %d%s}\n"
            i s.name s.parent (s.start - t0) (s.stop - t0) s.units
            (if Float.is_nan s.words then "" else Printf.sprintf ", \"words\": %.0f" s.words))
        all;
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"series\": %S, \"ns\": [%s]}\n" s.sname
            (String.concat ", " (List.init s.len (fun i -> string_of_int s.data.(i)))))
        !all_series)
