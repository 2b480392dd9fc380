(* batch-full: the paper's §6–§7 batch computation over one snapshot.

   One iteration: scan_roas, an RFC 6811 database over the result and a
   validation of every announced pair, the §6 measurement, the §8
   corpus audit, status-quo compression, the full-deployment corpus and
   its compression, and the RTR snapshot a freshly connected router
   would download. Repository crypto does none of the work here; see
   repo-refresh for that. *)

module Vrp = Rpki.Vrp
module Validation = Rpki.Validation

type input = { snap : Dataset.Snapshot.t; pairs : (Netaddr.Pfx.t * Rpki.Asnum.t) array }

type output = {
  scanned : Vrp.t list;
  today : Vrp.t list;  (** Status-quo corpus after compression. *)
  full : Vrp.t list;  (** Full-deployment corpus after compression. *)
  summary : string;  (** Validation counts, §6 stats, audit totals, RTR snapshot digest. *)
  reset_bytes : int;
}

let span = Trace.span

let pass { snap; pairs } =
  let table = snap.Dataset.Snapshot.table in
  let roas = snap.Dataset.Snapshot.roas in
  let scanned = span "scan_roas.vrps_of_roas" (fun () -> Rpki.Scan_roas.vrps_of_roas roas) in
  let db = span "validation.create" (fun () -> Validation.create scanned) in
  let valid = ref 0 and invalid = ref 0 in
  span "validation.validate" (fun () ->
      Trace.count (Array.length pairs);
      Array.iter
        (fun (p, a) ->
          match Validation.validate db p a with
          | Validation.Valid -> incr valid
          | Validation.Invalid -> incr invalid
          | Validation.Not_found -> ())
        pairs);
  let stats = span ~words:true "analysis.measure" (fun () -> Mlcore.Analysis.measure snap) in
  let audit = span "advisor.audit" (fun () -> Mlcore.Advisor.audit table roas) in
  let today = span "compress.run_today" (fun () -> Mlcore.Compress.run scanned) in
  let full_vrps =
    span ~words:true "minimal.full_deployment_vrps" (fun () ->
        Mlcore.Minimal.full_deployment_vrps table)
  in
  let full = span ~words:true "compress.run_full" (fun () -> Mlcore.Compress.run full_vrps) in
  let reset =
    span "cache_server.create" (fun () ->
        let server = Rtr.Cache_server.create today in
        Rtr.Cache_server.handle_wire server Rtr.Pdu.Reset_query)
  in
  let exposed =
    List.fold_left
      (fun acc ((r : Mlcore.Advisor.report), _) -> Int64.add acc r.total_exposed)
      0L audit
  in
  let summary =
    Format.asprintf "valid=%d invalid=%d pairs=%d | %a | audit=%d exposed=%Ld | reset=%s" !valid
      !invalid (Array.length pairs) Mlcore.Analysis.pp stats (List.length audit) exposed
      (Common.md5 (String.concat "" reset))
  in
  { scanned;
    today;
    full;
    summary;
    reset_bytes = List.fold_left (fun n s -> n + String.length s) 0 reset }

let same a b =
  List.equal Vrp.equal a.today b.today
  && List.equal Vrp.equal a.full b.full
  && String.equal a.summary b.summary

(* Compression must be lossless: the compressed status-quo set makes
   exactly the same announced pairs Valid as the scanned set did. *)
let lossless input out =
  let before = Validation.create out.scanned and after = Validation.create out.today in
  Array.for_all
    (fun (p, a) -> Bool.equal (Validation.authorized before p a) (Validation.authorized after p a))
    input.pairs

let run (cfg : Common.config) =
  let scale = if cfg.smoke then 0.01 else 0.2 in
  let input, setup =
    Common.setup cfg (fun () ->
        let snap =
          Dataset.Snapshot.generate ~params:(Dataset.Snapshot.scaled scale) ~seed:cfg.seed ()
        in
        { snap; pairs = Array.of_list (Dataset.Bgp_table.pairs snap.Dataset.Snapshot.table) })
  in
  let tally = Common.tally () in
  let first = ref None in
  let step () =
    Gc.full_major ();
    let out, ns = Common.time (fun () -> span "iteration" (fun () -> pass input)) in
    (match !first with
     | None ->
       first := Some out;
       let ok = lossless input out in
       if not ok then Common.complain "compression changed the set of Valid announced pairs";
       Common.record tally ~ok
     | Some f ->
       let ok = same f out in
       if not ok then Common.complain "iteration output differs from the first iteration's";
       Common.record tally ~ok);
    ns
  in
  let measured = Common.measure cfg ~min_steps:(if cfg.smoke then 1 else 3) step in
  let out = match !first with Some o -> o | None -> assert false (* min_steps >= 1 *) in
  let digest =
    Common.md5 (Common.vrps_digest out.today ^ Common.vrps_digest out.full ^ out.summary)
  in
  let per name = Common.median (Trace.durations_ns name) /. 1e9 in
  let words name = Trace.total_words name /. float_of_int (max 1 (Trace.calls name)) in
  let layers =
    [ ("scan_roas.vrps_of_roas.s", per "scan_roas.vrps_of_roas");
      ("validation.create.s", per "validation.create");
      ( "validation.validate.ns_per_query",
        Common.ratio
          (float_of_int (Trace.total_ns "validation.validate"))
          (float_of_int (Trace.total_units "validation.validate")) );
      ("analysis.measure.s", per "analysis.measure");
      ("analysis.measure.words", words "analysis.measure");
      ("advisor.audit.s", per "advisor.audit");
      ("minimal.full_deployment_vrps.s", per "minimal.full_deployment_vrps");
      ("minimal.full_deployment_vrps.words", words "minimal.full_deployment_vrps");
      ("compress.run_today.s", per "compress.run_today");
      ("compress.run_full.s", per "compress.run_full");
      ("compress.run_full.words", words "compress.run_full");
      ("compress.run_full.tuples_out", float_of_int (List.length out.full));
      ("cache_server.create.s", per "cache_server.create");
      ("cache_server.reset_bytes", float_of_int out.reset_bytes);
      ("trace.coverage_pct", Trace.coverage_pct "iteration") ]
  in
  { Common.tally;
    digest;
    setup;
    measured;
    layers;
    notes =
      [ ("scale", Printf.sprintf "%g" scale);
        ("pairs", string_of_int (Array.length input.pairs));
        ("roas", string_of_int (List.length input.snap.Dataset.Snapshot.roas));
        ("vrps", string_of_int (List.length out.scanned)) ] }
