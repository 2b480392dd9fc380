module Pfx = Netaddr.Pfx
module Asnum = Rpki.Asnum
module Attack = Topology.Attack

type cell = {
  attack : Attack.kind;
  roa_minimal : bool;
  validity : Rpki.Validation.state;
  mean_capture : float;
}

type result = { trials : int; n_as : int; rov : float; cells : cell list }

(* The paper's running example, re-addressed per trial: the victim
   holds a /16, announces it plus one /24 (168.122.225.0/24-style),
   and the attacker goes after a different /24. *)
let victim_space trial =
  let base = Printf.sprintf "%d.%d.0.0/16" (10 + (trial mod 120)) (trial * 7 mod 256) in
  let p16 = Pfx.of_string_exn base in
  match Pfx.subprefixes p16 24 with
  | announced_24 :: _ :: rest ->
    let target_24 = List.nth rest (trial mod min 64 (List.length rest)) in
    (p16, announced_24, target_24)
  | _ -> assert false

let roas_for ~minimal ~victim (p16, announced_24, _) =
  if minimal then
    [ Rpki.Vrp.exact p16 victim; Rpki.Vrp.exact announced_24 victim ]
  else [ Rpki.Vrp.make_exn p16 ~max_len:24 victim ]


(* Pick a random victim/attacker stub pair for one trial. *)
let pick_stub_pair rng stubs =
  let victim = stubs.(Rng.int rng (Array.length stubs)) in
  let rec pick () =
    let a = stubs.(Rng.int rng (Array.length stubs)) in
    if Asnum.equal a victim then pick () else a
  in
  (victim, pick ())

let stub_array graph =
  let stubs =
    List.filter (fun a -> Topology.As_graph.is_stub graph a) (Topology.As_graph.as_list graph)
    |> Array.of_list
  in
  if Array.length stubs < 2 then invalid_arg "Hijack_eval: topology has too few stubs";
  stubs

(* Every result is a mean over the trials. *)
let check_trials fn trials =
  if trials < 1 then invalid_arg (Printf.sprintf "Hijack_eval.%s: trials must be at least 1" fn)

let kinds_of_trial target_24 =
  [ Attack.Subprefix_hijack target_24;
    Attack.Forged_origin_subprefix target_24;
    Attack.Forged_origin;
    Attack.Prefix_hijack ]

let run ~seed ~n_as ~rov ~trials =
  check_trials "run" trials;
  let graph =
    Topology.Gen.generate
      ~params:{ Topology.Gen.default_params with Topology.Gen.n_as }
      ~seed ()
  in
  let rng = Rng.create (seed + 7) in
  let stubs = stub_array graph in
  (* accumulate capture fractions per (kind index, minimal?) *)
  let acc = Hashtbl.create 16 in
  let validity_of = Hashtbl.create 16 in
  let record key v =
    let sum, n = match Hashtbl.find_opt acc key with Some x -> x | None -> (0.0, 0) in
    Hashtbl.replace acc key (sum +. v, n + 1)
  in
  for trial = 0 to trials - 1 do
    let victim, attacker = pick_stub_pair rng stubs in
    let (p16, announced_24, target_24) as space = victim_space trial in
    let rov_set = Asnum.Tbl.create 64 in
    List.iter
      (fun a ->
        if Rng.bernoulli rng rov && not (Asnum.equal a attacker) then
          Asnum.Tbl.replace rov_set a ())
      (Topology.As_graph.as_list graph);
    Asnum.Tbl.remove rov_set attacker;
    let target = Pfx.of_string_exn (Pfx.to_string target_24) in
    List.iter
      (fun minimal ->
        let vrps = roas_for ~minimal ~victim space in
        let scenario =
          { Attack.graph;
            victim;
            attacker;
            announced = [ p16; announced_24 ];
            vrps;
            rov = (fun a -> Asnum.Tbl.mem rov_set a);
            aspas = None }
        in
        List.iteri
          (fun i kind ->
            let r = Attack.run scenario kind ~target in
            record (i, minimal) (Attack.capture_fraction r);
            Hashtbl.replace validity_of (i, minimal) (kind, r.Attack.hijack_validity))
          (kinds_of_trial target_24))
      [ false; true ]
  done;
  let cells =
    List.concat_map
      (fun minimal ->
        List.mapi
          (fun i _ ->
            let kind, validity = Hashtbl.find validity_of (i, minimal) in
            let sum, n = Hashtbl.find acc (i, minimal) in
            { attack = kind; roa_minimal = minimal; validity; mean_capture = sum /. float_of_int n })
          (kinds_of_trial (Pfx.of_string_exn "10.0.0.0/24")))
      [ false; true ]
  in
  { trials; n_as; rov; cells }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Attack evaluation: %d ASes, %.0f%% ROV deployment, %d trials\n\
        (capture = mean fraction of ASes whose traffic for the target reaches the attacker)\n"
       r.n_as (100.0 *. r.rov) r.trials);
  Buffer.add_string buf
    (Printf.sprintf "  %-45s | %-11s | %-8s | %s\n" "attack" "ROA" "validity" "capture");
  Buffer.add_string buf (Printf.sprintf "  %s\n" (String.make 85 '-'));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  %-45s | %-11s | %-8s | %5.1f%%\n"
           (Attack.kind_to_string c.attack)
           (if c.roa_minimal then "minimal" else "non-minimal")
           (Rpki.Validation.state_to_string c.validity)
           (100.0 *. c.mean_capture)))
    r.cells;
  Buffer.contents buf

let hijack_table ~seed ~n_as ~rov ~trials = render (run ~seed ~n_as ~rov ~trials)

let aspa_comparison ~seed ~n_as ~trials =
  check_trials "aspa_comparison" trials;
  let graph =
    Topology.Gen.generate ~params:{ Topology.Gen.default_params with Topology.Gen.n_as } ~seed ()
  in
  let rng = Rng.create (seed + 13) in
  let stubs = stub_array graph in
  let capture_with aspas trial =
    let victim, attacker = pick_stub_pair rng stubs in
    let p16, announced_24, target_24 = victim_space trial in
    let scenario =
      { Attack.graph;
        victim;
        attacker;
        announced = [ p16; announced_24 ];
        vrps = [ Rpki.Vrp.make_exn p16 ~max_len:24 victim ];
        rov = (fun a -> not (Asnum.equal a attacker));
        aspas =
          (if aspas then
             Some
               (Rpki.Aspa.db_of_list
                  [ Rpki.Aspa.make_exn ~customer:victim
                      ~providers:(Topology.As_graph.providers graph victim) ])
           else None) }
    in
    Attack.capture_fraction
      (Attack.run scenario (Attack.Forged_origin_subprefix target_24)
         ~target:(Pfx.of_string_exn (Pfx.to_string target_24)))
  in
  let mean f =
    let sum = ref 0.0 in
    for trial = 0 to trials - 1 do
      sum := !sum +. f trial
    done;
    !sum /. float_of_int trials
  in
  let without = mean (capture_with false) in
  let with_aspa = mean (capture_with true) in
  Printf.sprintf
    "Extension: ASPA vs the forged-origin subprefix hijack (non-minimal ROA, %d ASes, %d trials)\n\
    \  without ASPA: %5.1f%% captured   (the paper's section-4 result)\n\
    \  with the victim's ASPA: %5.1f%% captured (the forged adjacency is an attested refusal)\n"
    n_as trials (100.0 *. without) (100.0 *. with_aspa)

let rov_sweep ~seed ~n_as ~trials ~fractions =
  check_trials "rov_sweep" trials;
  let graph =
    Topology.Gen.generate ~params:{ Topology.Gen.default_params with Topology.Gen.n_as } ~seed ()
  in
  let stubs = stub_array graph in
  List.map
    (fun fraction ->
      let rng = Rng.create (seed + int_of_float (fraction *. 1000.0)) in
      let subprefix_sum = ref 0.0 and forged_sum = ref 0.0 in
      for trial = 0 to trials - 1 do
        let victim, attacker = pick_stub_pair rng stubs in
        let p16, announced_24, target_24 = victim_space trial in
        let rov_set = Asnum.Tbl.create 64 in
        List.iter
          (fun a ->
            if Rng.bernoulli rng fraction && not (Asnum.equal a attacker) then
              Asnum.Tbl.replace rov_set a ())
          (Topology.As_graph.as_list graph);
        let scenario vrps =
          { Attack.graph;
            victim;
            attacker;
            announced = [ p16; announced_24 ];
            vrps;
            rov = (fun a -> Asnum.Tbl.mem rov_set a);
            aspas = None }
        in
        let target = Pfx.of_string_exn (Pfx.to_string target_24) in
        subprefix_sum :=
          !subprefix_sum
          +. Attack.capture_fraction
               (Attack.run
                  (scenario [ Rpki.Vrp.exact p16 victim; Rpki.Vrp.exact announced_24 victim ])
                  (Attack.Subprefix_hijack target_24) ~target);
        forged_sum :=
          !forged_sum
          +. Attack.capture_fraction
               (Attack.run
                  (scenario [ Rpki.Vrp.make_exn p16 ~max_len:24 victim ])
                  (Attack.Forged_origin_subprefix target_24) ~target)
      done;
      ( fraction,
        !subprefix_sum /. float_of_int trials,
        !forged_sum /. float_of_int trials ))
    fractions

let render_rov_sweep rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Capture vs ROV deployment (subprefix hijack / minimal ROA vs forged-origin\n\
     subprefix hijack / non-minimal ROA):\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-12s | %-26s | %s\n" "deployment" "subprefix (minimal ROA)"
       "forged-origin subpfx (maxLength ROA)");
  List.iter
    (fun (f, sub, forged) ->
      Buffer.add_string buf
        (Printf.sprintf "  %10.0f%% | %25.1f%% | %10.1f%%\n" (100.0 *. f) (100.0 *. sub)
           (100.0 *. forged)))
    rows;
  Buffer.contents buf
