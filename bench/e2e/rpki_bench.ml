(* End-to-end benchmark of the RPKI cache pipeline; see README.md.

     rpki_bench.exe --workload NAME [--seed N] [--seconds S]
                    [--trace 0|1] [--trace-file FILE] [--smoke]

   Runs one workload in this process and prints, as its last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. The
   metrics are the end-to-end ones, or with --trace 1 the per-layer
   ones from a traced run. --smoke shrinks every input and exits
   non-zero unless the run was correct. *)

let workloads =
  [ ("batch-full", Batch_full.run);
    ("repo-refresh", Repo_refresh.run);
    ("live-churn", Live_churn.run);
    ("rtr-fanout", Rtr_fanout.run) ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  let trace_file = ref None and smoke = ref false in
  let usage = "rpki_bench.exe --workload NAME [options]" in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        " one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S wall time of the measurement loop (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--trace-file", Arg.String (fun f -> trace_file := Some f), "FILE write the spans here");
      ("--smoke", Arg.Set smoke, " tiny inputs; exit 1 unless correct") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("rpki_bench: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  | Some run ->
    let cfg =
      { Common.workload = !workload;
        seed = !seed;
        seconds = Float.max 0.0 !seconds;
        trace = !trace <> 0;
        trace_file = !trace_file;
        smoke = !smoke }
    in
    let correct = Common.emit cfg (run cfg) in
    if cfg.Common.smoke && not correct then exit 1
