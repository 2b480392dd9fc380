(* Shared plumbing of the end-to-end bench: run configuration, the
   metric catalogue, set-up timing, the closed measurement loop, output
   checks and the result line. *)

type config = {
  workload : string;
  seed : int;
  seconds : float;  (** Wall time the measurement loop runs for. *)
  trace : bool;  (** Report the per-layer metrics instead of the end-to-end ones. *)
  trace_file : string option;  (** Where to write the recorded spans, if anywhere. *)
  smoke : bool;  (** Tiny inputs; exit non-zero on any failed check. *)
}

(* --- metric catalogue --- *)

let all_workloads = [ "batch-full"; "repo-refresh"; "live-churn"; "rtr-fanout" ]

(* Per-layer metrics of the traced run: name, unit, and the workloads
   that produce it. A traced run prints all of them, with 0 for a layer
   its workload never calls. *)
let per_layer =
  let b = [ "batch-full" ] and r = [ "repo-refresh" ] and c = [ "live-churn" ] in
  let f = [ "rtr-fanout" ] in
  [ ("scan_roas.vrps_of_roas.s", "s", b @ r);
    ("validation.create.s", "s", b);
    ("validation.validate.ns_per_query", "ns", b);
    ("analysis.measure.s", "s", b);
    ("analysis.measure.words", "words", b);
    ("advisor.audit.s", "s", b);
    ("minimal.full_deployment_vrps.s", "s", b);
    ("minimal.full_deployment_vrps.words", "words", b);
    ("compress.run_today.s", "s", b);
    ("compress.run_full.s", "s", b);
    ("compress.run_full.words", "words", b);
    ("compress.run_full.tuples_out", "count", b);
    ("cache_server.create.s", "s", b);
    ("cache_server.reset_bytes", "bytes", b);
    ("repository.validate.s", "s", r);
    ("repository.validate.us_per_object", "us", r);
    ("repository.validate.words", "words", r);
    ("repository.validate.rejections", "count", r);
    ("compress.run.s", "s", r);
    ("cache_server.update.s", "s", r);
    ("repository.issue_roa.ms_per_roa", "ms", r);
    ("churn.apply.ns_p50", "ns", c);
    ("churn.apply.ns_p99", "ns", c);
    ("churn.apply.words_per_event", "words", c);
    ("churn.apply.noop_share", "ratio", c);
    ("churn.compressed.ms_p50", "ms", c);
    ("churn.compressed.words", "words", c);
    ("cache_server.update.ms_p50", "ms", c);
    ("cache_server.handle_wire.us_p50", "us", c);
    ("cache_server.handle_wire.bytes_per_call", "bytes", c);
    ("pdu.decode_all.ns_per_byte", "ns", c);
    ("router_client.receive.ns_per_pdu", "ns", c);
    ("transition.self_ms", "ms", c);
    ("transition.ms_p99", "ms", c);
    ("rtr_bytes_per_router", "bytes", c);
    ("timeline.generate.s", "s", c);
    ("timeline.diff.s", "s", c);
    ("churn.create.s", "s", c);
    ("rtr_sim.run.s", "s", f);
    ("rtr_sim.run.ns_per_clock_event", "ns", f);
    ("rtr_sim.run.clock_events_per_session", "count", f);
    ("rtr_sim.run.reconnects_per_session", "count", f);
    ("rtr_sim.run.words_per_session", "words", f);
    ("rtr_sim.to_fresh_p99_ms", "ms", f);
    ("rtr_sim.fresh_share", "ratio", f);
    ("iteration_ms_p50", "ms", all_workloads);
    ("calibration_ms_p50", "ms", all_workloads);
    ("setup_wall_s", "s", all_workloads);
    ("trace.overhead_pct", "%", all_workloads);
    ("trace.coverage_pct", "%", all_workloads) ]

(* --- statistics --- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let ratio num den = if den = 0.0 then 0.0 else num /. den
let ns_to_s ns = float_of_int ns /. 1e9

(* --- checks --- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* One checked operation: an iteration, a transition, a session or a
   once-per-run gate. *)
let record t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let complain fmt = Printf.ksprintf (fun m -> prerr_endline ("rpki_bench: check failed: " ^ m)) fmt

let md5 s = Digest.to_hex (Digest.string s)
let vrps_digest vrps = md5 (Rpki.Scan_roas.to_csv vrps)

(* Output digests at seed 42 and full size, recorded from the commit
   that introduced this bench. A run at that seed and size must
   reproduce them exactly; any other seed is checked for internal
   consistency only. *)
let pinned =
  [ ("batch-full", "b0fd2e07ac82a4d74e977a1fab3fff48");
    ("repo-refresh", "e5f0a66112ebfe2eced645e3d9299286");
    ("live-churn", "d7d2d2547e1209cebee7053497fc69e1");
    ("rtr-fanout", "c87522b7e1811aa122794a3e52594740") ]

let pin_ok cfg digest =
  cfg.smoke || cfg.seed <> 42
  || Option.equal String.equal (List.assoc_opt cfg.workload pinned) (Some digest)

(* --- timing --- *)

let time f =
  let t0 = Trace.now () in
  let x = f () in
  (x, Trace.now () - t0)

(* --- calibration ---

   On a small virtual machine shared with other tenants the speed of
   the same code swings by up to 1.9x over periods of seconds to
   minutes, with no steal time, and CPU time slows with wall time. So
   the set-ups and the timed iterations are preceded by a fixed piece
   of Stdlib-only work, the calibration kernel, and the end-to-end
   times are rescaled to a reference speed: the time the work would
   take on a host where the kernel takes [reference_ns]. The kernel
   calls none of the repository's libraries, so a change to them moves
   only the measured side of the ratio. *)

let reference_ns = 25_000_000.0

module Int_map = Map.Make (Int)

(* A sort, a balanced-tree build and walk, and a mixing loop over an
   array: about 25 ms on the machine in baseline.json when its host is
   quiet. Arithmetic on registers alone hardly slows when the host is
   busy, while work that goes through the caches and the heap slows as
   the workloads do, so the kernel is mostly the latter. *)
let calibration_kernel () =
  let n = 40_000 in
  let a = Array.init n (fun i -> (i * 7919 + 13) land 0xfffff) in
  Array.sort Int.compare a;
  let m = Array.fold_left (fun m x -> Int_map.add x (x lxor 0x5bd1) m) Int_map.empty a in
  let h = ref (Int_map.fold (fun k v h -> (h * 31) + k + v) m 0) in
  for round = 1 to 40 do
    Array.iter (fun x -> h := (!h lxor (x + round)) * 0x100000001b3) a
  done;
  !h

let calibrate () = float_of_int (snd (time (fun () -> Sys.opaque_identity (calibration_kernel ()))))

(* [ns] of work, rescaled to the reference speed by the calibration
   time [calib_ns] measured around it. A workload
   whose time swings with the host more steeply than the kernel's has a
   [sensitivity] above 1: its time goes as the kernel's raised to that
   power. *)
let at_reference ~sensitivity ~calib_ns ns = ns *. ((reference_ns /. calib_ns) ** sensitivity)

(* Set the workload up at least five times and until three seconds have
   passed (once in a smoke run), and keep the last copy; cheap set-ups
   get more samples. Each earlier copy is garbage before the next
   starts and a full collection runs between set-ups, so only one copy
   is ever live. The kernel runs three times before each set-up and
   after the last. A set-up takes up to two seconds and there are only
   a few, so the median set-up wall time is rescaled by the median of
   all these calibrations: one calibration alone is off by 30% or more
   one time in ten. *)
type setup_time = {
  ref_s : float;  (** Median set-up time at the reference speed. *)
  wall_s : float;  (** Median set-up wall time. *)
}

let setup ?(sensitivity = 1.0) cfg f =
  let times, budget = if cfg.smoke then (1, 0) else (5, 3_000_000_000) in
  let calibrate3 calibs = calibrate () :: calibrate () :: calibrate () :: calibs in
  let t0 = Trace.now () in
  let rec go i calibs walls =
    Gc.compact ();
    let calibs = calibrate3 calibs in
    let x, ns = time f in
    let walls = float_of_int ns :: walls in
    if i >= times && Trace.now () - t0 >= budget then (x, calibrate3 calibs, walls)
    else go (i + 1) calibs walls
  in
  let x, calibs, walls = go 1 [] [] in
  let wall = median walls in
  ( x,
    { ref_s = at_reference ~sensitivity ~calib_ns:(median calibs) wall /. 1e9;
      wall_s = wall /. 1e9 } )

type samples = {
  steps : float list;  (** Wall ns of each step, in order. *)
  calib : float list;  (** For each iteration, in order, the calibration ns it is rescaled by. *)
}

(* Iterations shorter than this share the calibration before them; the
   host's speed holds for seconds at a time. *)
let calibration_interval_ns = 250_000_000

(* The closed loop: the next step starts only after the previous one
   has returned. [step ()] returns the wall ns of its timed part, so it
   can run untimed checks after it. A calibration runs before an
   iteration of [per_iteration] steps when the last one is older than
   [calibration_interval_ns]. Steps run until [seconds] of wall time
   have passed, checks and calibrations included, at least [min_steps]
   were made, and the count is a whole number of iterations. *)
let loop ~seconds ~min_steps ~per_iteration step =
  let deadline = Trace.now () + int_of_float (seconds *. 1e9) in
  let rec go n steps calib ~last ~at =
    if n mod per_iteration = 0 && n >= min_steps && Trace.now () >= deadline then
      { steps = List.rev steps; calib = List.rev calib }
    else if n mod per_iteration <> 0 then go (n + 1) (float_of_int (step ()) :: steps) calib ~last ~at
    else begin
      let last, at =
        if n = 0 || Trace.now () - at >= calibration_interval_ns then (calibrate (), Trace.now ())
        else (last, at)
      in
      go (n + 1) (float_of_int (step ()) :: steps) (last :: calib) ~last ~at
    end
  in
  go 0 [] [] ~last:0.0 ~at:0

type measured = {
  untraced : samples;  (** The end-to-end numbers. *)
  traced : samples;  (** With spans on; empty unless tracing. *)
  per_iteration : int;  (** Consecutive steps that make one iteration. *)
  sensitivity : float;  (** See [at_reference]. *)
}

(* Untraced for the whole run, or, when tracing, untraced for the
   first half and traced for the second, so the two can be compared
   ([trace.overhead_pct]) within one run of the same length. *)
let measure ?(per_iteration = 1) ?(sensitivity = 1.0) cfg ~min_steps step =
  let loop seconds = loop ~seconds ~min_steps ~per_iteration step in
  if not cfg.trace then
    { untraced = loop cfg.seconds;
      traced = { steps = []; calib = [] };
      per_iteration;
      sensitivity }
  else begin
    let half = cfg.seconds /. 2.0 in
    let untraced = loop half in
    Trace.reset ();
    Trace.enabled := true;
    let traced = loop half in
    Trace.enabled := false;
    { untraced; traced; per_iteration; sensitivity }
  end

(* Iteration wall times: the sums of consecutive groups of
   [per_iteration] step times. *)
let iterations ~per_iteration steps =
  let rec go acc sum k = function
    | [] -> List.rev acc
    | t :: rest ->
      let sum = sum +. t in
      if k + 1 = per_iteration then go (sum :: acc) 0.0 0 rest else go acc sum (k + 1) rest
  in
  go [] 0.0 0 steps

(* Iteration times at the reference speed, each rescaled by the latest
   calibration before it. *)
let reference_iterations m s =
  List.map2
    (fun calib_ns ns -> at_reference ~sensitivity:m.sensitivity ~calib_ns ns)
    s.calib
    (iterations ~per_iteration:m.per_iteration s.steps)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1_048_576.0

(* --- the result line --- *)

type outcome = {
  tally : tally;
  digest : string;  (** Digest of the run's outputs, for pinning. *)
  setup : setup_time;
  measured : measured;
  layers : (string * float) list;  (** Per-layer values; only read when tracing. *)
  notes : (string * string) list;  (** Input sizes etc., printed as metadata. *)
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit cfg o =
  let pin = pin_ok cfg o.digest in
  if not pin then complain "%s output digest %s differs from the pinned one" cfg.workload o.digest;
  let { untraced; traced; per_iteration; _ } = o.measured in
  let untraced_ref = reference_iterations o.measured untraced in
  (* Every workload prints every end-to-end metric; what one iteration
     is depends on the workload (see README.md). Times are medians at
     the reference speed; the wall times are per-layer metrics. *)
  let e2e =
    [ ("setup_s", "s", o.setup.ref_s);
      ("iteration_ref_ms", "ref_ms", median untraced_ref /. 1e6);
      ("top_heap_mb", "MB", top_heap_mb ()) ]
  in
  let layers =
    if cfg.trace then
      ("iteration_ms_p50", median (iterations ~per_iteration untraced.steps) /. 1e6)
      :: ("calibration_ms_p50", median untraced.calib /. 1e6)
      :: ("setup_wall_s", o.setup.wall_s)
      :: ( "trace.overhead_pct",
           100.0
           *. (ratio (median (reference_iterations o.measured traced)) (median untraced_ref)
              -. 1.0) )
      :: o.layers
    else o.layers
  in
  let missing = ref [] in
  let metrics =
    if not cfg.trace then e2e
    else
      List.map
        (fun (name, unit_, workloads) ->
          match List.assoc_opt name layers with
          | Some v -> (name, unit_, v)
          | None ->
            if List.exists (String.equal cfg.workload) workloads then missing := name :: !missing;
            (name, unit_, 0.0))
        per_layer
  in
  List.iter (fun name -> complain "%s did not report %s" cfg.workload name) !missing;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  if not finite then complain "a metric is not a finite number";
  let correct = o.tally.failed = 0 && pin && finite && List.is_empty !missing in
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%b smoke=%b steps=%d traced_steps=%d\n"
    cfg.workload cfg.seed cfg.seconds cfg.trace cfg.smoke (List.length untraced.steps)
    (List.length traced.steps);
  Printf.printf "# setup_wall_s=%.6f calibration_ms_p50=%.6f iteration_ms_p50=%.6f\n"
    o.setup.wall_s
    (median untraced.calib /. 1e6)
    (median (iterations ~per_iteration untraced.steps) /. 1e6);
  Printf.printf "# RPKI_DOMAINS=%s recommended_domain_count=%d ocaml=%s digest=%s\n"
    (Option.value (Sys.getenv_opt "RPKI_DOMAINS") ~default:"unset")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version o.digest;
  List.iter (fun (k, v) -> Printf.printf "# %s=%s\n" k v) o.notes;
  List.iter (fun (name, unit_, v) -> Printf.printf "# %-44s %14.6g %s\n" name v unit_) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.tally.attempted o.tally.failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
          metrics));
  Option.iter Trace.write cfg.trace_file;
  correct
