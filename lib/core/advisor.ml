module Pfx = Netaddr.Pfx
module Roa = Rpki.Roa
module Bgp_table = Dataset.Bgp_table

type severity = Safe | Warning | Vulnerable

type finding = {
  severity : severity;
  entry : Roa.entry option;
  message : string;
  exposed_routes : int64;
}

type report = {
  roa : Roa.t;
  findings : finding list;
  total_exposed : int64;
  verdict : severity;
}

let severity_rank = function Safe -> 0 | Warning -> 1 | Vulnerable -> 2

(* Distinct prefixes in the cone of (p, up to m) that the AS does not
   announce: cone size minus announced-in-cone count. *)
let exposed_count table asn (e : Roa.entry) =
  let m = Roa.effective_max_len e in
  let l = Pfx.length e.Roa.prefix in
  let cone = Int64.sub (Int64.shift_left 1L (min (m - l + 1) 62)) 1L in
  let announced =
    Array.fold_left ( + ) 0 (Bgp_table.count_by_length_under table e.Roa.prefix asn ~max_len:m)
  in
  Int64.sub cone (Int64.of_int announced)

let review_entry table asn (e : Roa.entry) =
  let l = Pfx.length e.Roa.prefix in
  let m = Roa.effective_max_len e in
  let announced_exact = Bgp_table.mem table e.Roa.prefix asn in
  if m > l then begin
    let exposed = exposed_count table asn e in
    if Int64.compare exposed 0L > 0 then
      { severity = Vulnerable;
        entry = Some e;
        message =
          Printf.sprintf
            "%s-%d authorizes %Ld route(s) %s does not announce: each is open to a \
             forged-origin subprefix hijack"
            (Pfx.to_string e.Roa.prefix) m exposed (Rpki.Asnum.to_string asn);
        exposed_routes = exposed }
    else
      { severity = Safe;
        entry = Some e;
        message =
          Printf.sprintf "%s-%d is minimal (every authorized subprefix is announced)"
            (Pfx.to_string e.Roa.prefix) m;
        exposed_routes = 0L }
  end
  else if not announced_exact then
    { severity = Warning;
      entry = Some e;
      message =
        Printf.sprintf "%s is authorized but not announced by %s (stale or premature entry)"
          (Pfx.to_string e.Roa.prefix) (Rpki.Asnum.to_string asn);
      exposed_routes = 1L }
  else
    { severity = Safe;
      entry = Some e;
      message = Printf.sprintf "%s matches an announced route" (Pfx.to_string e.Roa.prefix);
      exposed_routes = 0L }

let review table roa =
  let asn = Roa.asn roa in
  let findings = List.map (review_entry table asn) (Roa.entries roa) in
  let total_exposed =
    List.fold_left (fun acc f -> Int64.add acc f.exposed_routes) 0L findings
  in
  let verdict =
    List.fold_left
      (fun acc f -> if severity_rank f.severity > severity_rank acc then f.severity else acc)
      Safe findings
  in
  { roa; findings; total_exposed; verdict }

let suggest_minimal table roa =
  match Minimal.minimal_roas table [ roa ] with
  | [ minimal ] -> Some minimal
  | [] -> None
  | _ -> assert false (* one input ROA yields at most one output *)

let suggest_compressed table roa =
  match suggest_minimal table roa with
  | None -> None
  | Some minimal ->
    let vrps = Compress.run (Roa.vrps minimal) in
    let entries =
      List.map
        (fun (x : Rpki.Vrp.t) ->
          { Roa.prefix = x.Rpki.Vrp.prefix;
            max_len = (if Rpki.Vrp.uses_max_len x then Some x.Rpki.Vrp.max_len else None) })
        vrps
    in
    Some (Roa.make_exn (Roa.asn roa) entries)

let pp_report ppf r =
  let sev = function Safe -> "safe" | Warning -> "WARNING" | Vulnerable -> "VULNERABLE" in
  Format.fprintf ppf "@[<v>%a — %s (%Ld exposed route(s))" Roa.pp r.roa (sev r.verdict)
    r.total_exposed;
  List.iter
    (fun f ->
      if f.severity <> Safe then Format.fprintf ppf "@,  [%s] %s" (sev f.severity) f.message)
    r.findings;
  Format.fprintf ppf "@]"

let audit table roas =
  List.filter_map
    (fun roa ->
      let r = review table roa in
      if r.verdict = Safe then None else Some (r, suggest_compressed table roa))
    roas
  |> List.sort (fun (a, _) (b, _) ->
         let c = Int.compare (severity_rank b.verdict) (severity_rank a.verdict) in
         if c <> 0 then c else Int64.compare b.total_exposed a.total_exposed)

type corpus_stats = {
  total : int;
  safe : int;
  warnings : int;
  vulnerable : int;
  total_exposed : int64;
}

let corpus_stats table roas =
  List.fold_left
    (fun acc roa ->
      let r = review table roa in
      { total = acc.total + 1;
        safe = (acc.safe + if r.verdict = Safe then 1 else 0);
        warnings = (acc.warnings + if r.verdict = Warning then 1 else 0);
        vulnerable = (acc.vulnerable + if r.verdict = Vulnerable then 1 else 0);
        total_exposed = Int64.add acc.total_exposed r.total_exposed })
    { total = 0; safe = 0; warnings = 0; vulnerable = 0; total_exposed = 0L }
    roas

let pp_corpus_stats ppf s =
  Format.fprintf ppf
    "%d ROAs: %d safe, %d warnings, %d vulnerable; %Ld hijackable unannounced routes"
    s.total s.safe s.warnings s.vulnerable s.total_exposed
