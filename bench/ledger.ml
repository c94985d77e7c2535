(* ledger — the performance ledger: every bench row in one run, printed
   on stdout as one "hsmc-bench-1" JSON object with one row per line.

     ledger [--quick] [--check BASELINE]

   Each row does a fixed amount of work and reports a timed value
   (higher is better) and exact counters: figures only the code can
   move, such as simulated operations (Scc.Engine.events), simulated
   picoseconds, shared-DRAM loads, facts computed and the words the
   work allocates directly on the major heap.  Timed values are
   best-of-N wall time, each sample repeating the work for at least
   50 ms: the simulator is deterministic, so the fastest sample is the
   least-noise estimate.

   --check compares every row with a baseline written by this program
   in the same mode and prints each row's verdict on stderr.  A row
   passes when its value reaches its gate's floor and every counter
   equals the baseline's; a changed counter means the code changed.
   Exit 1 when a row fails, 65 when the baseline cannot be read, lacks
   a row or a counter, or was written in the other mode.  Without
   --check the ledger still exits 1 when -O changes a program's output
   or a synth run fails verification. *)

type result = {
  label : string;
  value : float;
  counters : (string * string) list;  (** compared as printed *)
}

(* [Floor (min, frac)]: the value must reach max min (frac x baseline). *)
type gate = Floor of float * float | Reported

type row = {
  name : string;
  unit : string;
  gate : gate;
  run : quick:bool -> result;
}

let count = string_of_int

(* --- timing -------------------------------------------------------------- *)

(* Words allocated directly on the major heap while [work] runs: major
   minus promoted words, counted in the calling domain.  Unlike the
   minor-word count this is exact: the same work gives the same count
   in every run and every process. *)
let major_words work =
  let _, promoted0, major0 = Gc.counters () in
  let result = work () in
  let _, promoted1, major1 = Gc.counters () in
  (result, count (int_of_float (major1 -. promoted1 -. (major0 -. promoted0))))

(* Runs [work] once for its result and its [major_words], then returns
   those and the best seconds per run over N samples of at least 50 ms
   each. *)
let timed ~quick work =
  let result, words = major_words work in
  let best = ref infinity in
  for _ = 1 to if quick then 3 else 10 do
    let t0 = Unix.gettimeofday () in
    let runs = ref 0 and dt = ref 0. in
    while !dt < 0.05 do
      ignore (work ());
      incr runs;
      dt := Unix.gettimeofday () -. t0
    done;
    best := Float.min !best (!dt /. float_of_int !runs)
  done;
  (result, words, !best)

(* --- the simulator ------------------------------------------------------- *)

let pi ~nt ~quick =
  Cfront.Parser.program ~file:"pi.c"
    (Exp.Csrc.pi ~nt ~steps:(if quick then 16384 else 65536))

(* Simulated operations per second, the count and the simulated time. *)
let interp_row ~quick ~label run =
  let r, words, s = timed ~quick run in
  let events = Scc.Engine.events r.Cexec.Interp.engine in
  {
    label;
    value = float_of_int events /. s;
    counters =
      [ ("events", count events); ("elapsed_ps", count r.elapsed_ps);
        ("round_trips", count (Scc.Engine.round_trips r.engine));
        ("major_words", words) ];
  }

let interp ~nt ~quick =
  let program = pi ~nt ~quick in
  interp_row ~quick
    ~label:(Printf.sprintf "pi-pthread-%d-threads" nt)
    (fun () -> Cexec.Interp.run_pthread program)

(* pi translated with -O for 8 ranks. *)
let pi_rcce ~quick =
  let options =
    { Translate.Pass.default_options with ncores = 8; optimize = true }
  in
  fst (Translate.Driver.translate_program ~options (pi ~nt:8 ~quick))

(* Ranks that run ahead on their own cores. *)
let interp_rcce ~quick =
  let translated = pi_rcce ~quick in
  interp_row ~quick ~label:"pi-rcce-O-8-cores" (fun () ->
      Cexec.Interp.run_rcce ~ncores:8 translated)

(* The recorders' enabled cost: the interp_rcce program with the profiler
   and the critical-path recorder attached, which run ahead with its
   ranks, and the --explain report rendered.  The digest pins the
   report's bytes; round_trips equals interp_rcce's. *)
let explain ~quick =
  let translated = pi_rcce ~quick in
  let (r, cp, report), words, s =
    timed ~quick (fun () ->
        let profile = Scc.Profile.create () in
        let cp = Scc.Critpath.create () in
        let r =
          Cexec.Interp.run_rcce ~profile ~critpath:cp ~ncores:8 translated
        in
        ( r, cp,
          Scc.Critpath.render ~profile cp ^ Scc.Critpath.to_json ~profile cp ))
  in
  let events = Scc.Engine.events r.Cexec.Interp.engine in
  {
    label = "pi-rcce-O-8-cores-explain";
    value = float_of_int events /. s;
    counters =
      [ ("events", count events);
        ("elapsed_ps", count r.elapsed_ps);
        ("critpath_events", count (Scc.Critpath.events cp));
        ("path_steps", count (List.length (Scc.Critpath.critical_path cp)));
        ("dropped", count (Scc.Critpath.dropped cp));
        ("report_digest",
         Printf.sprintf "%S" (Digest.to_hex (Digest.string report)));
        ("round_trips", count (Scc.Engine.round_trips r.engine));
        ("major_words", words) ];
  }

(* The engine with no interpreter in front of it: contexts time-sharing
   one core, each alternating a short compute burst with a private-line
   load — the effect mix of the pi run minus all interpretation.  If
   this row holds while the interp rows drop, the interpreter
   regressed. *)
let sched_raw ~quick =
  let nctx = 256 and rounds = if quick then 2048 else 4096 in
  let run () =
    let eng = Scc.Engine.create () in
    let addr =
      Scc.Memmap.alloc (Scc.Engine.memmap eng) (Scc.Memmap.Private 0)
        ~bytes:64
    in
    for i = 0 to nctx - 1 do
      ignore
        (Scc.Engine.spawn eng ~core:0 (fun api ->
             for r = 0 to rounds - 1 do
               api.Scc.Engine.compute 20;
               api.Scc.Engine.load (addr + (((i + r) mod 16) * 4)) ~bytes:4
             done))
    done;
    Scc.Engine.run eng;
    (Scc.Engine.events eng, Scc.Engine.round_trips eng)
  in
  let (events, round_trips), words, s = timed ~quick run in
  {
    label = Printf.sprintf "raw-%d-ctx-compute-load" nctx;
    value = float_of_int events /. s;
    counters =
      [ ("events", count events); ("round_trips", count round_trips);
        ("major_words", words) ];
  }

(* The same effect mix run ahead, as interp_rcce runs: one context on
   each of cores 0-7, each alternating a compute burst with a load from
   its own core's private line, so nearly every operation is processed
   in place.  This row is to interp_rcce what sched_raw is to interp. *)
let sched_ahead ~quick =
  let ncores = 8 and rounds = if quick then 20_000 else 80_000 in
  let run () =
    let eng = Scc.Engine.create ~strict:false () in
    for core = 0 to ncores - 1 do
      let addr =
        Scc.Memmap.alloc (Scc.Engine.memmap eng) (Scc.Memmap.Private core)
          ~bytes:64
      in
      ignore
        (Scc.Engine.spawn eng ~core (fun api ->
             for _ = 1 to rounds do
               api.Scc.Engine.compute 20;
               api.Scc.Engine.load addr ~bytes:4
             done))
    done;
    Scc.Engine.run eng;
    (Scc.Engine.events eng, Scc.Engine.round_trips eng)
  in
  let (events, round_trips), words, s = timed ~quick run in
  {
    label = Printf.sprintf "ahead-%d-cores-compute-load" ncores;
    value = float_of_int events /. s;
    counters =
      [ ("events", count events); ("round_trips", count round_trips);
        ("major_words", words) ];
  }

(* The scheduler's round trip with no interpreter in front of it: a
   strict engine with one context on each of cores 0-7, each alternating
   a compute burst with a load of a shared-DRAM line, so nearly every
   operation hands the turn to another context through the run loop.
   This row is to synth, whose workload engines are strict, what
   sched_raw is to interp. *)
let sched_turns ~quick =
  let ncores = 8 and rounds = if quick then 20_000 else 80_000 in
  let run () =
    let eng = Scc.Engine.create () in
    for core = 0 to ncores - 1 do
      let addr =
        Scc.Memmap.alloc (Scc.Engine.memmap eng) Scc.Memmap.Shared_dram
          ~bytes:64
      in
      ignore
        (Scc.Engine.spawn eng ~core (fun api ->
             for _ = 1 to rounds do
               api.Scc.Engine.compute 20;
               api.Scc.Engine.load addr ~bytes:4
             done))
    done;
    Scc.Engine.run eng;
    (Scc.Engine.events eng, Scc.Engine.round_trips eng)
  in
  let (events, round_trips), words, s = timed ~quick run in
  {
    label = Printf.sprintf "turns-%d-cores-compute-shared-load" ncores;
    value = float_of_int events /. s;
    counters =
      [ ("events", count events); ("round_trips", count round_trips);
        ("major_words", words) ];
  }

(* Figure 6.1 end to end: each benchmark as a Pthread baseline and in
   RCCE form, with the simulated times the figure reports. *)
let fig61 ~quick =
  let rows, words, s =
    timed ~quick (fun () ->
        Exp.Experiments.fig_6_1_data ~scale:Exp.Experiments.Quick ())
  in
  let configs = 2 * List.length rows in
  let verified =
    List.filter (fun (r : Exp.Experiments.fig_6_1_row) -> r.verified) rows
  in
  let ps ms = Printf.sprintf "%.0f" (ms *. 1e9) in
  {
    label = "fig-6.1-quick";
    value = float_of_int configs /. s;
    counters =
      ("configs", count configs)
      :: ("verified", count (2 * List.length verified))
      :: List.concat_map
           (fun (r : Exp.Experiments.fig_6_1_row) ->
             [ (r.name ^ "_pthread_ps", ps r.baseline_ms);
               (r.name ^ "_rcce_ps", ps r.rcce_ms) ])
           rows
      @ [ ("round_trips",
           count
             (List.fold_left
                (fun acc (r : Exp.Experiments.fig_6_1_row) ->
                  acc + r.round_trips)
                0 rows));
          ("major_words", words) ];
  }

(* Wall-clock speedup of four independent pi runs on the domain pool:
   above 1 on a multi-core host, about 1 on one CPU.  Reported only. *)
let pool ~quick =
  let program = pi ~nt:32 ~quick in
  let runs =
    List.init 4 (fun _ () -> ignore (Cexec.Interp.run_pthread program))
  in
  let jobs = min 4 (Exp.Pool.default_jobs ()) in
  let time jobs =
    let _, _, s = timed ~quick (fun () -> Exp.Pool.map_fixed ~jobs runs) in
    s
  in
  let seq_s = time 1 in
  {
    label = Printf.sprintf "4-pi-runs-jobs-1-vs-%d" jobs;
    value = seq_s /. time jobs;
    counters = [];
  }

(* --- the -O optimizer ---------------------------------------------------- *)

(* Each config is translated plain and with -O, and both run on the
   simulated chip.  The two must print the same output: -O may move
   loads, never results.  The value is the best simulated speedup. *)
let opt ~quick =
  let nt = if quick then 8 else 32 and reps = if quick then 4 else 8 in
  let config key label src =
    let program = Cfront.Parser.program ~file:(label ^ ".c") src in
    let run optimize =
      let options =
        { Translate.Pass.default_options with ncores = nt; optimize }
      in
      Cexec.Interp.run_rcce ~ncores:nt
        (fst (Translate.Driver.translate_program ~options program))
    in
    let naive = run false and opt = run true in
    if naive.output <> opt.output then begin
      Printf.eprintf
        "ledger: opt: OUTPUT MISMATCH on %s\n  naive: %s\n  -O:    %s\n" label
        (String.trim naive.output) (String.trim opt.output);
      exit 1
    end;
    let loads (r : Cexec.Interp.result) =
      Scc.Stats.total_shared_dram_loads (Scc.Engine.stats r.engine)
    in
    ( float_of_int naive.elapsed_ps /. float_of_int (max 1 opt.elapsed_ps),
      label,
      [ (key ^ "_naive_ps", count naive.elapsed_ps);
        (key ^ "_opt_ps", count opt.elapsed_ps);
        (key ^ "_naive_loads", count (loads naive));
        (key ^ "_opt_loads", count (loads opt)) ] )
  in
  let configs =
    [ config "dot" (Printf.sprintf "dot-nt%d-n512-reps%d" nt reps)
        (Exp.Csrc.dot_reps ~reps ~nt ~n:512);
      config "hot_loop" (Printf.sprintf "hot-loop-nt%d" nt)
        (Exp.Csrc.hot_loop ~nt ~steps:4096) ]
  in
  {
    label = String.concat "," (List.map (fun (_, l, _) -> l) configs);
    value = List.fold_left (fun acc (s, _, _) -> Float.max acc s) 0. configs;
    counters = List.concat_map (fun (_, _, c) -> c) configs;
  }

(* --- the synthetic sweep ------------------------------------------------- *)

(* A prefix of the lib/synth quick grid, sequentially, with the mean
   greedy-vs-all-off-chip speedup the sweep exists to chart. *)
let synth ~quick =
  let n = if quick then 24 else 96 in
  let specs =
    List.filteri (fun i _ -> i < n) (Synth.Spec.grid Synth.Spec.Quick)
  in
  let groups, words, s =
    timed ~quick (fun () -> List.map Synth.Sweep.rows_of_spec specs)
  in
  let unverified =
    List.filter
      (fun r -> not r.Synth.Sweep.r_m.m_verified)
      (List.concat groups)
  in
  if unverified <> [] then begin
    Printf.eprintf "ledger: synth: %d rows FAILED verification\n"
      (List.length unverified);
    exit 1
  end;
  let elapsed rows policy =
    Option.map
      (fun r -> r.Synth.Sweep.r_m.m_elapsed_ps)
      (Synth.Sweep.find_measurement rows policy)
  in
  let ratios =
    List.filter_map
      (fun rows ->
        match (elapsed rows All_dram, elapsed rows Greedy) with
        | Some d, Some g when g > 0 -> Some (float_of_int d /. float_of_int g)
        | _ -> None)
      groups
  in
  let mean =
    List.fold_left ( +. ) 0. ratios
    /. float_of_int (max 1 (List.length ratios))
  in
  let losses = List.filter_map Synth.Sweep.loss_of_rows groups in
  {
    label = Printf.sprintf "synth-quick-grid-first-%d" n;
    value = float_of_int n /. s;
    counters =
      [ ("configs", count n);
        ("losses", count (List.length losses));
        ("mean_greedy_speedup", Printf.sprintf "%.3f" mean);
        ("round_trips",
         count
           (List.fold_left
              (fun acc r -> acc + r.Synth.Sweep.r_m.m_round_trips)
              0 (List.concat groups)));
        ("major_words", words) ];
  }

(* --- the translator ------------------------------------------------------ *)

(* The full session path over the generated benchmark sources: parse,
   demand every Stage 1-4 fact, run the Stage 5 passes with structural
   verification.  The timed pass is the naive translation; the same
   sources translated once with -O at 8 cores, outside the samples,
   give the optimizer's fact count. *)
let translate ~quick =
  let nt = 8 in
  let sources =
    [ ("pi", Exp.Csrc.pi ~nt ~steps:4096);
      ("primes", Exp.Csrc.primes ~nt ~limit:2_000);
      ("sum35", Exp.Csrc.sum35 ~nt ~bound:20_000);
      ("dot", Exp.Csrc.dot ~nt ~n:4096);
      ("stream", Exp.Csrc.stream ~nt ~n:4096);
      ("lu", Exp.Csrc.lu ~nt ~n:32);
      ("mutex_counter", Exp.Csrc.mutex_counter ~nt ~iters:1_000);
      ("example41", Exp.Example41.source) ]
  in
  let pass options () =
    List.fold_left
      (fun facts (name, src) ->
        let file = name ^ ".c" in
        let session =
          Session.create ~file ~options (Cfront.Parser.program ~file src)
        in
        ignore (Translate.Driver.translate_session session);
        facts + Session.facts_computed session)
      0 sources
  in
  let facts, _, s = timed ~quick (pass Session.default_options) in
  let facts_o =
    pass
      { Session.default_options with Session.ncores = nt; optimize = true }
      ()
  in
  let n = List.length sources in
  {
    label = "csrc-8-programs";
    value = float_of_int n /. s;
    counters =
      [ ("programs", count n); ("facts_per_pass", count facts);
        ("facts_per_pass_O", count facts_o) ];
  }

(* --- the row table ------------------------------------------------------- *)

let rows =
  let sim = Floor (0., 0.80) in
  [ { name = "interp"; unit = "events/s"; gate = sim; run = interp ~nt:1024 };
    { name = "interp_8"; unit = "events/s"; gate = sim; run = interp ~nt:8 };
    { name = "interp_rcce"; unit = "events/s"; gate = sim; run = interp_rcce };
    { name = "explain"; unit = "events/s"; gate = sim; run = explain };
    { name = "sched_raw"; unit = "events/s"; gate = sim; run = sched_raw };
    { name = "sched_ahead"; unit = "events/s"; gate = sim;
      run = sched_ahead };
    { name = "sched_turns"; unit = "events/s"; gate = sim;
      run = sched_turns };
    { name = "fig61"; unit = "configs/s"; gate = sim; run = fig61 };
    { name = "pool"; unit = "speedup"; gate = Reported; run = pool };
    { name = "opt"; unit = "speedup"; gate = Floor (1.10, 0.9); run = opt };
    { name = "synth"; unit = "configs/s"; gate = Floor (1.0, 0.5);
      run = synth };
    { name = "translate"; unit = "programs/s"; gate = Floor (0., 0.5);
      run = translate } ]

(* --- the baseline -------------------------------------------------------- *)

let bad_baseline fmt =
  Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 65) fmt

(* The rows of a baseline written by this program: name -> value and
   counters.  Exits 65 on another schema or mode, or a missing row. *)
let read_baseline ~mode file =
  let lines =
    match In_channel.with_open_text file In_channel.input_all with
    | s -> String.split_on_char '\n' s
    | exception Sys_error e -> bad_baseline "cannot read baseline: %s" e
  in
  let scan line fmt k =
    try Some (Scanf.sscanf line fmt k)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  (match
     scan (List.hd lines) " {\"schema\": \"hsmc-bench-1\", \"mode\": %S" Fun.id
   with
  | Some m when m = mode -> ()
  | Some m ->
      bad_baseline "%s was written in %s mode, this run is %s" file m mode
  | None -> bad_baseline "%s is not an hsmc-bench-1 ledger" file);
  let counters s =
    List.filter_map
      (fun kv -> scan kv " %S: %s" (fun k v -> (k, v)))
      (String.split_on_char ',' s)
  in
  let base =
    List.filter_map
      (fun line ->
        scan line
          " {\"name\": %S, \"label\": %S, \"value\": %f, \"unit\": %S, \
           \"counters\": {%[^}]}"
          (fun name _ value _ cs -> (name, (value, counters cs))))
      lines
  in
  List.iter
    (fun row ->
      if not (List.mem_assoc row.name base) then
        bad_baseline "%s has no row %s" file row.name)
    rows;
  base

(* Prints every row's verdict; returns the names of the failed rows.
   Exits 65 first if the run and the baseline name different counters. *)
let check base results =
  List.iter
    (fun (row, r) ->
      let counters = snd (List.assoc row.name base) in
      let missing ~from ~what =
        List.iter
          (fun (k, _) ->
            if not (List.mem_assoc k from) then
              bad_baseline "row %s: counter %s is missing from the %s"
                row.name k what)
      in
      missing ~from:counters ~what:"baseline" r.counters;
      missing ~from:r.counters ~what:"run" counters)
    results;
  List.filter_map
    (fun (row, r) ->
      let value, counters = List.assoc row.name base in
      let slow =
        match row.gate with
        | Reported ->
            Printf.eprintf "  %-11s %.3f %s  (reported only)\n" row.name
              r.value row.unit;
            false
        | Floor (min, frac) ->
            let floor = Float.max min (frac *. value) in
            let slow = r.value < floor in
            Printf.eprintf "  %-11s %.3f %s  (floor %.3f, baseline %.3f)  %s\n"
              row.name r.value row.unit floor value
              (if slow then "SLOW" else "ok");
            slow
      in
      let changed =
        List.filter
          (fun (k, v) ->
            let b = List.assoc k counters in
            if v <> b then
              Printf.eprintf "  %-11s counter %s = %s, baseline %s  CHANGED\n"
                row.name k v b;
            v <> b)
          r.counters
      in
      if slow || changed <> [] then Some row.name else None)
    results

let () =
  let quick = ref false and baseline = ref None in
  Arg.parse
    [ ("--quick", Arg.Set quick, " CI-sized work");
      ("--check", Arg.String (fun f -> baseline := Some f),
       "FILE  gate every row against a baseline") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger [--quick] [--check FILE]";
  let mode = if !quick then "quick" else "full" in
  let base = Option.map (read_baseline ~mode) !baseline in
  Printf.printf "{\"schema\": \"hsmc-bench-1\", \"mode\": %S, \"rows\": [" mode;
  let results =
    List.mapi
      (fun i row ->
        let r = row.run ~quick:!quick in
        Printf.printf
          "%s\n{\"name\": %S, \"label\": %S, \"value\": %.3f, \"unit\": %S, \
           \"counters\": {%s}}"
          (if i = 0 then "" else ",")
          row.name r.label r.value row.unit
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) r.counters));
        flush stdout;
        (row, r))
      rows
  in
  print_string "\n]}\n";
  match base with
  | None -> ()
  | Some base -> (
      match check base results with
      | [] -> prerr_endline "ledger: ok"
      | failed ->
          Printf.eprintf "ledger: FAILED: %s\n" (String.concat ", " failed);
          exit 1)
