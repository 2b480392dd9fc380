(* repo-refresh: one periodic refresh of a relying-party local cache.

   Set-up signs a fixed number of a small snapshot's ROAs into a
   repository, so the work does not depend on the seed: one trust
   anchor, five RIR CAs (a ROA goes to the CA numbered origin AS mod 5),
   one manifest each. One iteration makes the calls Local_cache.refresh
   makes, in its order: the relying-party walk (signature chains, DER
   decoding, manifests), scan_roas, compression, and the RTR cache
   update. Nothing changes between refreshes, so the update is a no-op
   diff: the cost is the walk. *)

module Repo = Rpki.Repository
module Vrp = Rpki.Vrp

type input = {
  snap : Dataset.Snapshot.t;
  repo : Repo.t;
  issue_ns : int;  (** Time spent in issue_roa, all ROAs. *)
}

let rirs = 5

(* The walk allocates about 150 million words per refresh, and its time
   swings with the host's speed more steeply than the calibration
   kernel's does: fitted over runs on a host whose kernel time ranged
   1.9x, log refresh time moved 1.25-1.4 times as far as log kernel
   time. Rescaled with exponent 1, ten runs spread 8-20% (interquartile
   range over median); with 1.3, 5-7.5% (README.md, "Calibration"). *)
let sensitivity = 1.3

(* Smallest Merkle height whose key signs [n] objects plus a manifest,
   with issue_roa's one-signature reserve. *)
let height_for n =
  let rec go h = if 1 lsl h >= n + 2 then h else go (h + 1) in
  go 1

let ok_or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let build ~scale ~roas ~seed =
  let snap = Dataset.Snapshot.generate ~params:(Dataset.Snapshot.scaled scale) ~seed () in
  let roas = List.filteri (fun i _ -> i < roas) snap.Dataset.Snapshot.roas in
  let snap = { snap with Dataset.Snapshot.roas } in
  let repo = Repo.create ~seed:(Printf.sprintf "rpki-bench-%d" seed) "ta" in
  let rir_of roa = Rpki.Asnum.to_int (Rpki.Roa.asn roa) mod rirs in
  let all_space = List.map Netaddr.Pfx.of_string_exn [ "0.0.0.0/0"; "::/0" ] in
  (* One key height for every CA, with room for twice its even share,
     so that key generation costs the same whatever the seed does to
     the split; a CA given more than that gets the height it needs. *)
  let height = height_for (2 * List.length roas / rirs) in
  let cas =
    Array.init rirs (fun i ->
        let mine = List.filter (fun r -> rir_of r = i) roas in
        let asns = List.sort_uniq Rpki.Asnum.compare (List.map Rpki.Roa.asn mine) in
        ok_or_fail "add_ca"
          (Repo.add_ca repo ~parent:(Repo.root repo) ~name:(Printf.sprintf "rir%d" i)
             ~resources:all_space ~as_resources:asns
             ~height:(max height (height_for (List.length mine)))
             ()))
  in
  let issue roa = ignore (ok_or_fail "issue_roa" (Repo.issue_roa repo cas.(rir_of roa) roa)) in
  let (), issue_ns = Common.time (fun () -> List.iter issue roas) in
  { snap; repo; issue_ns }

let span = Trace.span

(* Everything one refresh computes; [served] is what routers get. *)
let refresh repo server =
  let outcome =
    span ~words:true "repository.validate" (fun () ->
        Trace.count (Repo.object_count repo);
        Repo.validate repo)
  in
  let roas = outcome.Repo.valid_roas in
  let scanned = span "scan_roas.vrps_of_roas" (fun () -> Rpki.Scan_roas.vrps_of_roas roas) in
  let served = span "compress.run" (fun () -> Mlcore.Compress.run scanned) in
  let notify = span "cache_server.update" (fun () -> Rtr.Cache_server.update server served) in
  (outcome, served, notify)

let run (cfg : Common.config) =
  let scale, roas = if cfg.smoke then (0.005, 24) else (0.02, 128) in
  let input, setup = Common.setup ~sensitivity cfg (fun () -> build ~scale ~roas ~seed:cfg.seed) in
  let tally = Common.tally () in
  let expected = Mlcore.Compress.run (Dataset.Snapshot.vrps input.snap) in
  (* The reference cache, built once: its first refresh also signs the
     five manifests, so every timed walk below reads them as cached. *)
  let cache = Mlcore.Local_cache.create [ input.repo ] in
  let server = Mlcore.Local_cache.server cache in
  let gate = List.equal Vrp.equal (Mlcore.Local_cache.vrps cache) expected in
  if not gate then Common.complain "Local_cache serves a different set than Compress.run";
  Common.record tally ~ok:gate;
  let serial = Rtr.Cache_server.serial server in
  let objects = Repo.object_count input.repo in
  let rejections = ref 0 in
  let step () =
    Gc.full_major ();
    let (outcome, served, notify), ns =
      Common.time (fun () -> span "iteration" (fun () -> refresh input.repo server))
    in
    let n_rej = List.length outcome.Repo.rejections in
    rejections := !rejections + n_rej;
    let ok =
      n_rej = 0
      && List.is_empty outcome.Repo.missing_from_manifest
      && List.equal Vrp.equal served expected
      && Option.is_none notify
      && Int32.equal (Rtr.Cache_server.serial server) serial
    in
    if not ok then Common.complain "refresh: %d rejection(s) or a changed served set" n_rej;
    Common.record tally ~ok;
    ns
  in
  let measured = Common.measure ~sensitivity cfg ~min_steps:(if cfg.smoke then 1 else 3) step in
  let digest =
    Common.md5
      (Printf.sprintf "%s objects=%d bytes=%d" (Common.vrps_digest expected) objects
         (Repo.size_on_wire input.repo))
  in
  let per name = Common.median (Trace.durations_ns name) /. 1e9 in
  let walks = float_of_int (max 1 (Trace.calls "repository.validate")) in
  let n_roas = List.length input.snap.Dataset.Snapshot.roas in
  let layers =
    [ ("repository.validate.s", per "repository.validate");
      ( "repository.validate.us_per_object",
        Common.ratio
          (float_of_int (Trace.total_ns "repository.validate") /. 1e3)
          (float_of_int (Trace.total_units "repository.validate")) );
      ("repository.validate.words", Trace.total_words "repository.validate" /. walks);
      ("repository.validate.rejections", float_of_int !rejections);
      ("scan_roas.vrps_of_roas.s", per "scan_roas.vrps_of_roas");
      ("compress.run.s", per "compress.run");
      ("cache_server.update.s", per "cache_server.update");
      ( "repository.issue_roa.ms_per_roa",
        Common.ratio (float_of_int input.issue_ns /. 1e6) (float_of_int n_roas) );
      ("trace.coverage_pct", Trace.coverage_pct "iteration") ]
  in
  { Common.tally;
    digest;
    setup;
    measured;
    layers;
    notes =
      [ ("scale", Printf.sprintf "%g" scale);
        ("roas", string_of_int n_roas);
        ("objects", string_of_int objects);
        ("served_vrps", string_of_int (List.length expected)) ] }
