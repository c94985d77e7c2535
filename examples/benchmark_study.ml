(* Benchmark study: the paper's evaluation on the native workload suite —
   the Figure 6.1 comparison (Pthread single-core baseline vs RCCE
   off-chip), the Figure 6.2 comparison (off-chip vs MPB placement), and
   a per-benchmark traffic breakdown from the simulator's counters.

     dune exec examples/benchmark_study.exe        (quick parameters)
     dune exec examples/benchmark_study.exe full   (the paper's scale)
*)

let scale () =
  match Sys.argv with
  | [| _; "full" |] -> Exp.Experiments.Full
  | _ -> Exp.Experiments.Quick

let () =
  let scale = scale () in
  Printf.printf "Running the six-benchmark suite at %s scale...\n\n"
    (Exp.Experiments.scale_to_string scale);
  print_string (Exp.Experiments.fig_6_1 ~scale ());
  print_newline ();
  print_string (Exp.Experiments.fig_6_2 ~scale ());
  print_newline ();

  (* a peek below the figures: where the memory traffic actually went *)
  print_endline "Traffic breakdown (RCCE off-chip vs MPB, 32 units):";
  let header =
    [ "Benchmark"; "Mode"; "Shared DRAM lines"; "MPB lines"; "Barrier (ms)" ]
  in
  let rows =
    List.concat_map
      (fun w ->
        List.map
          (fun (label, placement) ->
            let r =
              Workloads.Workload.run w
                (Workloads.Workload.Rcce (placement, 32))
            in
            let s = r.Workloads.Workload.stats in
            let barrier_ms =
              float_of_int
                (Array.fold_left
                   (fun acc c -> acc + c.Scc.Stats.barrier_wait_ps)
                   0 s.Scc.Stats.ctxs)
              /. 1e9
            in
            [ w.Workloads.Workload.name; label;
              string_of_int (Scc.Stats.total_shared_dram_lines s);
              string_of_int (Scc.Stats.total_mpb_lines s);
              Printf.sprintf "%.2f" barrier_ms ])
          [ ("off-chip", Workloads.Workload.Off_chip);
            ("MPB", Workloads.Workload.On_chip) ])
      (Exp.Experiments.suite scale)
  in
  print_string (Obs.render_table ~rule:true (header :: rows))
