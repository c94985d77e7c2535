(* hsmcc — the Pthread-to-RCCE source-to-source translator CLI.

     hsmcc translate file.c            translated C on stdout
     hsmcc analyze file.c              Tables 4.1/4.2-style analysis report
     hsmcc check file.c                static data-race detection
     hsmcc run file.c --cores 8        interpret on the simulated SCC
*)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_die = function
  | Ok x -> x
  | Error msg ->
      prerr_endline ("hsmcc: " ^ msg);
      exit 1

(* A located front-end error: one diagnostic line and exit 1. *)
let die_at loc msg =
  prerr_endline
    (Printf.sprintf "hsmcc: %s: %s" (Cfront.Srcloc.to_string loc) msg);
  exit 1

let parse_source path =
  match Cfront.Parser.program ~file:path (read_file path) with
  | program -> Ok program
  | exception Cfront.Srcloc.Error (loc, msg) ->
      Error (Printf.sprintf "%s: %s" (Cfront.Srcloc.to_string loc) msg)
  | exception Sys_error msg -> Error msg

let options_of ~ncores ~capacity ~density ~sound_locals ~many_to_one
    ~optimize ~sharpen =
  {
    Translate.Pass.ncores;
    capacity;
    strategy =
      (if density then Partition.Partitioner.Access_density
       else Partition.Partitioner.Size_ascending);
    sound_locals;
    many_to_one;
    optimize;
    sharpen;
  }

let timings_format_of_flag fmt =
  match Session.timings_format_of_string fmt with
  | Some f -> f
  | None ->
      prerr_endline
        (Printf.sprintf "hsmcc: unknown timings format '%s' \
                         (expected table or json)" fmt);
      exit 2

(* Per-provider/per-pass instrumentation, on stderr so stdout stays the
   translated program. *)
let emit_timings session format =
  let rendered =
    match timings_format_of_flag format with
    | `Table -> Session.render_timings session
    | `Json -> Session.render_timings_json session
  in
  output_string stderr rendered

let diag_format_of_flag fmt =
  match Diag.format_of_string fmt with
  | Some f -> f
  | None ->
      prerr_endline
        (Printf.sprintf "hsmcc: unknown diagnostic format '%s' \
                         (expected gcc or json)" fmt);
      exit 2

(* The one diagnostic sink for `check` and `verify`: promote warnings
   under --warn-error, render in the requested format, print the gcc
   summary line, and return the process exit status — so the two
   commands cannot drift apart in exit-code or rendering behaviour. *)
let emit_diags ~out ~warn_error ~diag_format diags =
  let diags = if warn_error then Diag.promote_warnings diags else diags in
  let format = diag_format_of_flag diag_format in
  let status = Diag.emit ~format out diags in
  if format = Diag.Gcc then prerr_endline (Diag.summary diags);
  status

(* --- translate ------------------------------------------------------------ *)

let translate_cmd path ncores capacity density sound_locals many_to_one
    optimize sharpen race_check warn_error diag_format timings timings_format
    trace_out verbose =
  let program = or_die (parse_source path) in
  let options =
    options_of ~ncores ~capacity ~density ~sound_locals ~many_to_one
      ~optimize ~sharpen
  in
  (* one session carries the whole command: the race check below reuses
     the very facts the translator demanded — nothing runs twice *)
  let session = Session.create ~file:path ~options program in
  match Translate.Driver.translate_session session with
  | translated, report ->
      print_string (Cfront.Pretty.program translated);
      if verbose then begin
        prerr_endline "-- pass notes:";
        List.iter
          (fun n -> prerr_endline ("--   " ^ n))
          report.Translate.Driver.notes
      end;
      if timings || timings_format <> None then
        emit_timings session
          (Option.value timings_format ~default:"table");
      (match trace_out with
      | None -> ()
      | Some path ->
          (* merge-write: a later `simrun --trace` on the same file adds
             the simulator tracks to this compiler track *)
          Obs.Chrome.write_merge path (Session.chrome_events session);
          Printf.eprintf "-- trace: %d provider spans -> %s (Perfetto)\n"
            (Obs.Spans.length (Session.spans session))
            path);
      if race_check then begin
        let status =
          Diag.emit ~format:(diag_format_of_flag diag_format)
            ~werror:warn_error stderr report.Translate.Driver.diagnostics
        in
        if status <> 0 then exit status
      end
  | exception Translate.Driver.Error e ->
      prerr_endline ("hsmcc: " ^ Translate.Driver.error_to_string e);
      exit 1
  | exception Cfront.Srcloc.Error (loc, msg) -> die_at loc msg

(* --- check ---------------------------------------------------------------- *)

let check_cmd path warn_error diag_format =
  let program = or_die (parse_source path) in
  let session = Session.create ~file:path program in
  match Session.race_diags session with
  | diags -> exit (emit_diags ~out:stdout ~warn_error ~diag_format diags)
  | exception Cfront.Srcloc.Error (loc, msg) -> die_at loc msg

(* --- verify --------------------------------------------------------------- *)

(* Thread-modular abstract interpretation: prove every indexed access in
   bounds.  A Pthread input is verified twice — as written and after
   translation to RCCE, where every shmalloc access raises a proof
   obligation; an already-translated program (RCCE_APP entry) once. *)
let verify_cmd path ncores many_to_one optimize sharpen json warn_error
    diag_format timings timings_format =
  let program = or_die (parse_source path) in
  let options =
    { Translate.Pass.default_options with Translate.Pass.ncores;
      many_to_one; optimize; sharpen }
  in
  let session = Session.create ~file:path ~options program in
  match
    let source = Session.absint_summary session in
    let source_diags = Session.bounds_verdict session in
    let sharpened =
      if sharpen then Session.sharpened session else []
    in
    let translated =
      if Absint.detect_mode program = Absint.Oblig.Rcce then None
      else
        match Translate.Driver.translate_session session with
        | (_ : Cfront.Ast.program * Translate.Driver.report) ->
            (* the translator published a new generation; the fact
               recomputes against the RCCE program *)
            Some (Session.absint_summary session,
                  Session.bounds_verdict session)
        | exception Translate.Driver.Error e ->
            Printf.eprintf
              "hsmcc: note: translation failed (%s); verifying the \
               source program only\n"
              (Translate.Driver.error_to_string e);
            None
    in
    (source, source_diags, sharpened, translated)
  with
  | source, source_diags, sharpened, translated ->
      let runs =
        source :: (match translated with Some (s, _) -> [ s ] | None -> [])
      in
      if json then print_string (Absint.render_json ~file:path runs)
      else begin
        List.iter (fun s -> print_string (Absint.render_human s)) runs;
        if sharpened <> [] then
          Printf.printf "  sharpened to private: %s\n"
            (String.concat ", " sharpened)
      end;
      if timings || timings_format <> None then
        emit_timings session (Option.value timings_format ~default:"table");
      let diags =
        source_diags
        @ (match translated with Some (_, d) -> d | None -> [])
      in
      exit (emit_diags ~out:stderr ~warn_error ~diag_format diags)
  | exception Cfront.Srcloc.Error (loc, msg) -> die_at loc msg

(* --- analyze -------------------------------------------------------------- *)

let analyze_cmd path =
  let program = or_die (parse_source path) in
  let session = Session.create ~file:path program in
  match Session.pipeline session with
  | a ->
      print_endline "Per-variable information (post Stage 3):";
      print_string (Exp.Tabulate.render (Analysis.Pipeline.table_4_1 a));
      print_newline ();
      print_endline "Sharing status after each stage:";
      print_string (Exp.Tabulate.render (Analysis.Pipeline.table_4_2 a));
      print_newline ();
      print_endline "Points-to relationships:";
      let rels =
        Analysis.Points_to.relationships a.Analysis.Pipeline.points_to
      in
      if rels = [] then print_endline "  (none)"
      else
        List.iter
          (fun (ptr, tgt, d) ->
            Printf.printf "  %s -> %s (%s)\n"
              (Ir.Var_id.to_string ptr)
              (Analysis.Points_to.target_to_string tgt)
              (Analysis.Points_to.definiteness_to_string d))
          rels
  | exception Cfront.Srcloc.Error (loc, msg) -> die_at loc msg

(* --- preprocess ------------------------------------------------------------ *)

let preprocess_cmd path defines =
  let defines =
    List.map
      (fun d ->
        match String.index_opt d '=' with
        | Some i ->
            (String.sub d 0 i,
             String.sub d (i + 1) (String.length d - i - 1))
        | None -> (d, "1"))
      defines
  in
  match Cfront.Preproc.expand ~file:path ~defines (read_file path) with
  | expanded -> print_string expanded
  | exception Cfront.Srcloc.Error (loc, msg) -> die_at loc msg
  | exception Sys_error msg ->
      prerr_endline ("hsmcc: " ^ msg);
      exit 1

(* --- cfg -------------------------------------------------------------------- *)

let cfg_cmd path func =
  let program = or_die (parse_source path) in
  let session = Session.create ~file:path program in
  let cfgs = Session.cfgs session in
  let selected =
    match func with
    | None -> cfgs
    | Some name -> List.filter (fun (n, _) -> n = name) cfgs
  in
  if selected = [] then begin
    prerr_endline "hsmcc: no matching function";
    exit 1
  end;
  List.iter (fun (_, cfg) -> print_string (Ir.Cfg.to_dot cfg)) selected

(* --- run -------------------------------------------------------------------- *)

let run_cmd path ncores detect_races diag_format profile_on trace_out
    explain_on explain_json =
  let program = or_die (parse_source path) in
  let trace = Option.map (fun _ -> Scc.Trace.create ()) trace_out in
  let explain = explain_on || explain_json <> None in
  (* --explain borrows the profiler's intern tables so critical-path steps
     carry C function/line names; the profile report itself still prints
     only under --profile *)
  let profile =
    if profile_on || explain then Some (Scc.Profile.create ()) else None
  in
  let critpath =
    if explain then Some (Scc.Critpath.create ()) else None
  in
  let result =
    try
      if ncores <= 1 then
        Cexec.Interp.run_pthread ?trace ?profile ?critpath ~detect_races
          program
      else
        Cexec.Interp.run_rcce ?trace ?profile ?critpath ~detect_races ~ncores
          program
    with
    | Cexec.Interp.Runtime_error msg | Cexec.Value.Type_error msg ->
        prerr_endline ("hsmcc: runtime error: " ^ msg);
        exit 1
    | Scc.Memmap.Out_of_memory region ->
        prerr_endline
          ("hsmcc: runtime error: out of memory in "
          ^ Scc.Memmap.region_to_string region);
        exit 1
    | Scc.Engine.Deadlock msg ->
        prerr_endline ("hsmcc: deadlock: " ^ msg);
        exit 1
  in
  print_string result.Cexec.Interp.output;
  Printf.eprintf "-- simulated time: %.3f ms\n"
    (float_of_int result.Cexec.Interp.elapsed_ps /. 1e9);
  (match profile with
  | None -> ()
  | Some p -> if profile_on then prerr_string (Scc.Profile.render p));
  (match critpath with
  | None -> ()
  | Some cp ->
      if explain_on then prerr_string (Scc.Critpath.render ?profile cp);
      (match explain_json with
      | None -> ()
      | Some out ->
          let oc = open_out out in
          output_string oc (Scc.Critpath.to_json ?profile cp);
          close_out oc;
          Printf.eprintf "-- explain: -> %s (json)\n" out));
  (match trace_out, trace with
  | Some out, Some tr ->
      if Scc.Trace.dropped tr > 0 then
        Printf.eprintf
          "hsmcc: warning: trace truncated, %d events dropped%s\n"
          (Scc.Trace.dropped tr)
          (if critpath <> None then
             "; critical-path flow arrows clipped to the retained window"
           else "");
      Obs.Chrome.write_merge out (Scc.Timeline.events ?profile ?critpath tr);
      Printf.eprintf "-- trace: %d events -> %s (Perfetto)\n"
        (Scc.Trace.length tr) out
  | _, _ -> ());
  (* dynamic reports print through the same renderer as [hsmcc check] *)
  let diags =
    List.map Cexec.Lockset.report_to_diag result.Cexec.Interp.races
  in
  ignore
    (Diag.emit ~format:(diag_format_of_flag diag_format) stderr diags
      : int);
  if detect_races && result.Cexec.Interp.races = [] then
    prerr_endline "-- no data races detected"

(* --- command line ----------------------------------------------------------- *)

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c")

let cores_arg =
  Arg.(value & opt int 48 & info [ "cores" ] ~docv:"N"
         ~doc:"Cores of the target chip.")

let capacity_arg =
  Arg.(value & opt int 0
       & info [ "capacity" ] ~docv:"BYTES"
           ~doc:"On-chip shared memory available to the partitioner \
                 (0 = all shared data off-chip, the Figure 6.1 setup).")

let density_arg =
  Arg.(value & flag
       & info [ "density" ]
           ~doc:"Partition by access density instead of the paper's \
                 ascending-size greedy.")

let sound_locals_arg =
  Arg.(value & flag
       & info [ "sound-locals" ]
           ~doc:"Hoist shared locals into shared memory (the thesis's \
                 example output leaves them on the process stack).")

let many_to_one_arg =
  Arg.(value & flag
       & info [ "many-to-one" ]
           ~doc:"Map several threads onto one core with a task loop \
                 instead of rejecting programs with more threads than \
                 cores (the paper's section 7.2).")

let optimize_arg =
  Arg.(value & flag
       & info [ "O"; "optimize" ]
           ~doc:"The full optimizer bundle: MPB software caching of hot \
                 read-only shared data, partial redundancy elimination \
                 of shared loads, then constant folding and dead-branch \
                 elimination (the paper's section 7.3).")

let sharpen_arg =
  Arg.(value & flag
       & info [ "sharpen" ]
           ~doc:"Feed thread-locality facts proved by the abstract \
                 interpretation back into the sharing lattice: globals \
                 touched by exactly one thread become Private and stay \
                 out of shared memory.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print pass notes.")

let race_check_arg =
  Arg.(value & flag
       & info [ "race-check" ]
           ~doc:"Run the static data-race detector and print its \
                 diagnostics on stderr.")

let warn_error_arg =
  Arg.(value & flag
       & info [ "warn-error"; "Werror" ]
           ~doc:"Treat warnings as errors (non-zero exit when any \
                 diagnostic is emitted).")

let diag_format_arg =
  Arg.(value & opt string "gcc"
       & info [ "diag-format" ] ~docv:"FORMAT"
           ~doc:"Diagnostic output format: gcc (file:line:col text) or \
                 json (one array of objects).")

let timings_arg =
  Arg.(value & flag
       & info [ "timings" ]
           ~doc:"Print per-provider/per-pass wall-clock and invocation \
                 counts on stderr after translating.")

let timings_format_arg =
  Arg.(value & opt (some string) None
       & info [ "timings-format" ] ~docv:"FORMAT"
           ~doc:"Timings output format: table (fixed columns) or json. \
                 Implies $(b,--timings).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE.json"
           ~doc:"Write the per-provider/per-pass wall-clock spans as a \
                 Chrome/Perfetto trace.  If FILE already holds a trace \
                 (or a later $(b,simrun --trace) targets the same file), \
                 compiler and simulator tracks share one timeline.")

let translate_term =
  Term.(const translate_cmd $ file_arg $ cores_arg $ capacity_arg
        $ density_arg $ sound_locals_arg $ many_to_one_arg $ optimize_arg
        $ sharpen_arg $ race_check_arg $ warn_error_arg $ diag_format_arg
        $ timings_arg $ timings_format_arg $ trace_out_arg $ verbose_arg)

let translate_cmd_info =
  Cmd.v (Cmd.info "translate" ~doc:"Translate a Pthread program to RCCE")
    translate_term

let analyze_cmd_info =
  Cmd.v (Cmd.info "analyze" ~doc:"Run Stages 1-3 and print the analysis")
    Term.(const analyze_cmd $ file_arg)

let check_cmd_info =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically detect data races (lockset analysis over the \
             Stage 1-3 facts)")
    Term.(const check_cmd $ file_arg $ warn_error_arg $ diag_format_arg)

let verify_json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Print the verification report as one JSON document \
                 (stable field order; diagnostics go to stderr).")

let verify_cmd_info =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Prove array and shmalloc accesses in bounds by \
             thread-modular abstract interpretation (source program \
             and its RCCE translation)")
    Term.(const verify_cmd $ file_arg $ cores_arg $ many_to_one_arg
          $ optimize_arg $ sharpen_arg $ verify_json_arg
          $ warn_error_arg $ diag_format_arg $ timings_arg
          $ timings_format_arg)

let run_cores_arg =
  Arg.(value & opt int 1
       & info [ "cores" ] ~docv:"N"
           ~doc:"Interpret as an RCCE program on N cores (1 = Pthread \
                 single-core baseline).")

let detect_races_arg =
  Arg.(value & flag
       & info [ "detect-races" ]
           ~doc:"Run the Eraser lockset race detector during execution.")

let run_profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Attribute every simulated picosecond to the executing C \
                 function and source line; print flat/inclusive \
                 profiles, line heat, mutex contention and barrier \
                 imbalance on stderr.")

let run_trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE.json"
           ~doc:"Write a Chrome/Perfetto timeline of the simulated run \
                 (merged into FILE if it already holds a trace).")

let run_explain_arg =
  Arg.(value & flag
       & info [ "explain" ]
           ~doc:"Where the time goes: a full picosecond accounting whose \
                 identity (sum over contexts and categories = wall x \
                 contexts) is checked exactly, the critical path through \
                 the event-dependency graph attributed to C \
                 functions/lines, and what-if speedup ceilings (zero \
                 mesh, zero lock waits, MPB-speed shared DRAM, ...), on \
                 stderr.  With $(b,--trace), the critical path is drawn \
                 as Perfetto flow arrows over the timeline.")

let run_explain_json_arg =
  Arg.(value & opt (some string) None
       & info [ "explain-json" ] ~docv:"FILE"
           ~doc:"Write the $(b,--explain) report as one JSON document \
                 (implies the recording, not the human tables).")

let run_cmd_info =
  Cmd.v (Cmd.info "run" ~doc:"Interpret a program on the simulated SCC")
    Term.(const run_cmd $ file_arg $ run_cores_arg $ detect_races_arg
          $ diag_format_arg $ run_profile_arg $ run_trace_arg
          $ run_explain_arg $ run_explain_json_arg)

let defines_arg =
  Arg.(value & opt_all string []
       & info [ "D"; "define" ] ~docv:"NAME[=BODY]"
           ~doc:"Seed an object-like macro (repeatable).")

let preprocess_cmd_info =
  Cmd.v (Cmd.info "preprocess" ~doc:"Expand macros and conditionals")
    Term.(const preprocess_cmd $ file_arg $ defines_arg)

let func_arg =
  Arg.(value & opt (some string) None
       & info [ "function" ] ~docv:"NAME"
           ~doc:"Only this function (default: all).")

let cfg_cmd_info =
  Cmd.v
    (Cmd.info "cfg"
       ~doc:"Print control-flow graphs in Graphviz dot format")
    Term.(const cfg_cmd $ file_arg $ func_arg)

let main =
  Cmd.group
    (Cmd.info "hsmcc" ~version:"1.0.0"
       ~doc:"Pthread-to-RCCE translation framework for hybrid shared \
             memory manycores")
    [ translate_cmd_info; analyze_cmd_info; check_cmd_info;
      verify_cmd_info; run_cmd_info; preprocess_cmd_info; cfg_cmd_info ]

let () = exit (Cmd.eval main)
