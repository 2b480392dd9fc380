module Snapshot = Dataset.Snapshot

type row = { label : string; pdus : int; secure : bool; paper_pdus : int option }
type series = { name : string; secure : bool; points : (string * int) list }

(* The PDU lists behind every scenario, computed lazily per snapshot:
   Table 1 and Figure 3 both read this one definition. *)
type pipelines = {
  status_quo : Rpki.Vrp.t list lazy_t;
  status_quo_compressed : Rpki.Vrp.t list lazy_t;
  minimal : Rpki.Vrp.t list lazy_t;
  minimal_compressed : Rpki.Vrp.t list lazy_t;
  full : Rpki.Vrp.t list lazy_t;
  full_compressed : Rpki.Vrp.t list lazy_t;
  bound : Rpki.Vrp.t list lazy_t;
}

let pipelines_of ~mode (snap : Snapshot.t) =
  let compress vrps = Compress.run ~mode vrps in
  let table = snap.Snapshot.table in
  let status_quo = lazy (Snapshot.vrps snap) in
  let minimal = lazy (Minimal.minimal_vrps table (Lazy.force status_quo)) in
  let full = lazy (Minimal.full_deployment_vrps table) in
  {
    status_quo;
    status_quo_compressed = lazy (compress (Lazy.force status_quo));
    minimal;
    minimal_compressed = lazy (compress (Lazy.force minimal));
    full;
    full_compressed = lazy (compress (Lazy.force full));
    bound = lazy (Minimal.max_permissive_vrps table);
  }

let count p = List.length (Lazy.force p)

let table1 ?(mode = Compress.Strict) snap =
  let p = pipelines_of ~mode snap in
  [ { label = "Today"; pdus = count p.status_quo; secure = false; paper_pdus = Some 39_949 };
    { label = "Today (compressed)";
      pdus = count p.status_quo_compressed;
      secure = false;
      paper_pdus = Some 33_615 };
    { label = "Today, minimal ROAs, no maxLength";
      pdus = count p.minimal;
      secure = true;
      paper_pdus = Some 52_745 };
    { label = "Today, minimal ROAs, with maxLength (compressed)";
      pdus = count p.minimal_compressed;
      secure = true;
      paper_pdus = Some 49_308 };
    { label = "Full deployment, minimal ROAs, no maxLength";
      pdus = count p.full;
      secure = true;
      paper_pdus = Some 776_945 };
    { label = "Full deployment, minimal ROAs, with maxLength";
      pdus = count p.full_compressed;
      secure = true;
      paper_pdus = Some 730_008 };
    { label = "Full deployment, lower bound (max permissive ROAs)";
      pdus = count p.bound;
      secure = false;
      paper_pdus = Some 729_371 } ]

(* One pipeline record per week, shared by every series, so each
   week's lists are built once and dropped before the next week's. *)
let over_weeks ~mode weeks select =
  let per_week =
    List.map
      (fun (w : Dataset.Timeline.week) ->
        let p = pipelines_of ~mode w.Dataset.Timeline.snapshot in
        let counts = Array.of_list (List.map (fun (_, _, pick) -> count (pick p)) select) in
        (w.Dataset.Timeline.label, counts))
      weeks
  in
  List.mapi
    (fun i (name, secure, _) ->
      { name; secure; points = List.map (fun (label, counts) -> (label, counts.(i))) per_week })
    select

let figure3a ?(mode = Compress.Strict) weeks =
  over_weeks ~mode weeks
    [ ("Status quo", false, fun p -> p.status_quo);
      ("Status quo (compressed)", false, fun p -> p.status_quo_compressed);
      ("Minimal ROAs, no maxLength", true, fun p -> p.minimal);
      ("Minimal ROAs, with maxLength", true, fun p -> p.minimal_compressed) ]

let figure3b ?(mode = Compress.Strict) weeks =
  over_weeks ~mode weeks
    [ ("Minimal ROAs, no maxLength", true, fun p -> p.full);
      ("Minimal ROAs, with maxLength", true, fun p -> p.full_compressed);
      ("Lower bound on # PDUs", false, fun p -> p.bound) ]
