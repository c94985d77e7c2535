(* simrun — run one benchmark of the paper's suite on the simulated SCC.

     simrun pi --mode rcce-mpb --units 32
     simrun stream --mode pthread --units 32
     simrun --name pi --profile --trace out.json
*)

open Cmdliner

let run_cmd name name_flag mode units trace_out profile_on
    metrics_out explain_on explain_json verbose =
  let name =
    match name, name_flag with
    | Some n, _ | None, Some n -> n
    | None, None ->
        prerr_endline "simrun: missing workload (positional or --name)";
        exit 2
  in
  match Workloads.Suite.find name with
  | None ->
      Printf.eprintf "simrun: unknown workload %S (have: %s)\n" name
        (String.concat ", " Workloads.Suite.names);
      exit 1
  | Some w ->
      let mode =
        match mode with
        | "pthread" -> Workloads.Workload.Pthread_baseline units
        | "rcce-offchip" ->
            Workloads.Workload.Rcce (Workloads.Workload.Off_chip, units)
        | "rcce-mpb" ->
            Workloads.Workload.Rcce (Workloads.Workload.On_chip, units)
        | other ->
            Printf.eprintf
              "simrun: unknown mode %S (pthread | rcce-offchip | rcce-mpb)\n"
              other;
            exit 1
      in
      let cfg = Scc.Config.default in
      let trace = Option.map (fun _ -> Scc.Trace.create ()) trace_out in
      let explain = explain_on || explain_json <> None in
      let profile =
        (* --explain borrows the profiler's intern tables so critical-path
           steps carry function names; its report still prints only
           under --profile *)
        if profile_on || metrics_out <> None || explain then
          Some (Scc.Profile.create ())
        else None
      in
      let critpath =
        if explain then Some (Scc.Critpath.create ()) else None
      in
      let r = Workloads.Workload.run ?trace ?profile ?critpath ~cfg w mode in
      Printf.printf "workload:   %s\n" r.Workloads.Workload.workload;
      Printf.printf "mode:       %s\n"
        (Workloads.Workload.mode_to_string r.Workloads.Workload.mode);
      Printf.printf "elapsed:    %.3f ms simulated\n"
        (Workloads.Workload.elapsed_ms r);
      Printf.printf "verified:   %b\n" r.Workloads.Workload.verified;
      let s = r.Workloads.Workload.stats in
      Printf.printf "traffic:    %s\n" (Scc.Stats.summary s);
      List.iter (fun n -> Printf.printf "note:       %s\n" n)
        r.Workloads.Workload.notes;
      if verbose then begin
        print_endline "per-unit breakdown:";
        let header =
          [ "unit"; "compute ms"; "mem stall ms"; "barrier ms"; "lock ms";
            "switches" ]
        in
        let ms ps = Printf.sprintf "%.3f" (float_of_int ps /. 1e9) in
        let rows =
          Array.to_list
            (Array.mapi
               (fun i (c : Scc.Stats.ctx_stats) ->
                 [ string_of_int i;
                   ms c.Scc.Stats.compute_ps;
                   ms c.Scc.Stats.mem_stall_ps;
                   ms c.Scc.Stats.barrier_wait_ps;
                   ms c.Scc.Stats.lock_wait_ps;
                   string_of_int c.Scc.Stats.context_switches ])
               s.Scc.Stats.ctxs)
        in
        print_string (Obs.render_table ~rule:true (header :: rows))
      end;
      (match profile with
      | None -> ()
      | Some p ->
          if profile_on then begin
            print_newline ();
            print_string (Scc.Profile.render p)
          end;
          match metrics_out with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc
                (Obs.Registry.to_prometheus (Scc.Profile.registry p));
              close_out oc;
              Printf.printf "metrics:    -> %s (prometheus text)\n" path);
      (match critpath with
      | None -> ()
      | Some cp ->
          if explain_on then begin
            print_newline ();
            print_string (Scc.Critpath.render ?profile cp)
          end;
          (match explain_json with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc (Scc.Critpath.to_json ?profile cp);
              close_out oc;
              Printf.printf "explain:    -> %s (json)\n" path));
      (match trace_out, trace with
      | Some path, Some tr ->
          if Scc.Trace.dropped tr > 0 then
            Printf.eprintf
              "simrun: warning: trace truncated, %d events dropped past \
               the buffer limit%s\n"
              (Scc.Trace.dropped tr)
              (if critpath <> None then
                 "; critical-path flow arrows clipped to the retained \
                  window"
               else "");
          (* merge-write: lands in the same JSON array as compiler spans
             when the file came from `hsmcc translate --trace` *)
          Obs.Chrome.write_merge path
            (Scc.Timeline.events ?profile ?critpath tr);
          Printf.printf "trace:      %d events -> %s (Perfetto)\n"
            (Scc.Trace.length tr) path
      | _, _ -> ());
      if not r.Workloads.Workload.verified then exit 1

let name_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let name_flag_arg =
  Arg.(value & opt (some string) None
       & info [ "name" ] ~docv:"WORKLOAD"
           ~doc:"Workload name (alternative to the positional argument).")

let mode_arg =
  Arg.(value & opt string "rcce-offchip"
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"pthread | rcce-offchip | rcce-mpb")

let units_arg =
  Arg.(value & opt int 32
       & info [ "units" ] ~docv:"N" ~doc:"Threads or cores.")

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ] ~doc:"Per-unit time breakdown.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE.json"
           ~doc:"Write a Chrome-tracing timeline of the run.  If FILE \
                 already holds a trace (e.g. from hsmcc translate \
                 --trace), the simulator events are merged into it.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Attribute every simulated picosecond to the running \
                 workload and print flat/inclusive profiles, source-line \
                 heat, mutex contention and barrier imbalance tables.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write aggregate counters and wait histograms in \
                 Prometheus text exposition format.")

let explain_arg =
  Arg.(value & flag
       & info [ "explain" ]
           ~doc:"Where the time goes: a full picosecond accounting whose \
                 identity (sum over contexts and categories = wall x \
                 contexts) is checked exactly, the critical path through \
                 the event-dependency graph, and what-if speedup \
                 ceilings (zero mesh, zero lock waits, MPB-speed shared \
                 DRAM, ...).  With $(b,--trace), the critical path is \
                 drawn as Perfetto flow arrows over the timeline.")

let explain_json_arg =
  Arg.(value & opt (some string) None
       & info [ "explain-json" ] ~docv:"FILE"
           ~doc:"Write the $(b,--explain) report as one JSON document \
                 (implies the recording, not the human tables).")

let main =
  Cmd.v
    (Cmd.info "simrun" ~version:"1.0.0"
       ~doc:"Run one benchmark on the simulated SCC")
    Term.(const run_cmd $ name_arg $ name_flag_arg $ mode_arg $ units_arg
          $ trace_arg $ profile_arg $ metrics_arg
          $ explain_arg $ explain_json_arg $ verbose_arg)

let () = exit (Cmd.eval main)
