(* The experiment harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations DESIGN.md calls out.

   [Quick] scale shrinks the workload parameters so the whole set runs in
   seconds (used by tests); [Full] scale is the configuration whose
   numbers EXPERIMENTS.md records. *)

type scale = Quick | Full

let scale_to_string = function Quick -> "quick" | Full -> "full"

(* --- benchmark suite at a given scale ------------------------------------ *)

let suite = function
  | Full -> Workloads.Suite.all
  | Quick ->
      [
        Workloads.Pi.make ~params:{ Workloads.Pi.steps = 1 lsl 16 } ();
        Workloads.Sum35.make ~params:{ Workloads.Sum35.bound = 200_000 } ();
        Workloads.Primes.make ~params:{ Workloads.Primes.limit = 4_000 } ();
        Workloads.Stream.make
          ~params:{ Workloads.Stream.n = 1 lsl 14; reps = 4; block = 256 } ();
        Workloads.Dot.make
          ~params:{ Workloads.Dot.n = 1 lsl 14; reps = 4; block = 256 } ();
        Workloads.Lu.make ~params:{ Workloads.Lu.n = 64; block = 256 } ();
      ]

(* --- Tables 4.1 / 4.2 / 6.1 ---------------------------------------------- *)

(* One session for the running example: both tables (and anything else
   that joins later) share the memoized Stage 1-3 facts. *)
let example_session =
  lazy (Session.create ~file:Example41.file (Example41.parse ()))

let analysis_of_example () = Session.pipeline (Lazy.force example_session)

let table_4_1 () =
  let a = analysis_of_example () in
  "Table 4.1: Information Extracted Per Variable (Post Stage 3)\n\n"
  ^ Obs.render_table ~rule:true (Analysis.Pipeline.table_4_1 a)

let table_4_2 () =
  let a = analysis_of_example () in
  "Table 4.2: Variables Sharing Status\n\n"
  ^ Obs.render_table ~rule:true (Analysis.Pipeline.table_4_2 a)

let table_6_1 () =
  "Table 6.1: SCC Configuration\n\n"
  ^ Obs.render_table ~rule:true
      (Scc.Config.table_6_1 Scc.Config.default ~rcce_cores:32
         ~pthread_threads:32)

(* --- the running example through the whole translator --------------------- *)

let translation_example () =
  let translated, report =
    Translate.Driver.translate_source ~file:Example41.file Example41.source
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Example Code 4.1 translated to RCCE (the paper's Example Code 4.2)\n\n";
  Buffer.add_string buf (Cfront.Pretty.program translated);
  Buffer.add_string buf "\nPass notes:\n";
  List.iter
    (fun note -> Buffer.add_string buf (Printf.sprintf "  - %s\n" note))
    report.Translate.Driver.notes;
  Buffer.contents buf

(* --- Figure 6.1 ------------------------------------------------------------ *)

type fig_6_1_row = {
  name : string;
  baseline_ms : float;
  rcce_ms : float;
  speedup : float;
  verified : bool;
  round_trips : int;
}

let fig_6_1_data ?(scale = Full) ?(units = 32) () =
  List.map
    (fun w ->
      let baseline =
        Workloads.Workload.run w (Workloads.Workload.Pthread_baseline units)
      in
      let rcce =
        Workloads.Workload.run w
          (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, units))
      in
      {
        name = w.Workloads.Workload.name;
        baseline_ms = Workloads.Workload.elapsed_ms baseline;
        rcce_ms = Workloads.Workload.elapsed_ms rcce;
        speedup = Workloads.Workload.speedup ~baseline rcce;
        verified =
          baseline.Workloads.Workload.verified
          && rcce.Workloads.Workload.verified;
        round_trips =
          baseline.Workloads.Workload.round_trips
          + rcce.Workloads.Workload.round_trips;
      })
    (suite scale)

let fig_6_1 ?scale ?units () =
  let rows = fig_6_1_data ?scale ?units () in
  let table =
    [ "Benchmark"; "Pthread 1-core (ms)"; "RCCE off-chip (ms)"; "Speedup";
      "Verified" ]
    :: List.map
         (fun r ->
           [ r.name;
             Printf.sprintf "%.2f" r.baseline_ms;
             Printf.sprintf "%.2f" r.rcce_ms;
             Printf.sprintf "%.1fx" r.speedup;
             string_of_bool r.verified ])
         rows
  in
  "Figure 6.1: RCCE (32 cores, off-chip shared memory) vs 32-thread \
   Pthread program on one core\n\n"
  ^ Obs.render_table ~rule:true table ^ "\n"
  ^ Tabulate.bar_chart (List.map (fun r -> (r.name, r.speedup)) rows)

(* --- Figure 6.2 ------------------------------------------------------------ *)

type fig_6_2_row = {
  name : string;
  off_chip_ms : float;
  mpb_ms : float;
  improvement : float;
  verified : bool;
  notes : string list;
}

let fig_6_2_data ?(scale = Full) ?(units = 32) () =
  List.map
    (fun w ->
      let off =
        Workloads.Workload.run w
          (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, units))
      in
      let mpb =
        Workloads.Workload.run w
          (Workloads.Workload.Rcce (Workloads.Workload.On_chip, units))
      in
      {
        name = w.Workloads.Workload.name;
        off_chip_ms = Workloads.Workload.elapsed_ms off;
        mpb_ms = Workloads.Workload.elapsed_ms mpb;
        improvement =
          float_of_int off.Workloads.Workload.elapsed_ps
          /. float_of_int mpb.Workloads.Workload.elapsed_ps;
        verified =
          off.Workloads.Workload.verified && mpb.Workloads.Workload.verified;
        notes = mpb.Workloads.Workload.notes;
      })
    (suite scale)

let fig_6_2 ?scale ?units () =
  let rows = fig_6_2_data ?scale ?units () in
  let table =
    [ "Benchmark"; "Off-chip (ms)"; "MPB (ms)"; "Improvement"; "Verified" ]
    :: List.map
         (fun r ->
           [ r.name;
             Printf.sprintf "%.2f" r.off_chip_ms;
             Printf.sprintf "%.2f" r.mpb_ms;
             Printf.sprintf "%.1fx" r.improvement;
             string_of_bool r.verified ])
         rows
  in
  let notes =
    List.concat_map
      (fun r -> List.map (fun n -> Printf.sprintf "  - %s: %s" r.name n) r.notes)
      rows
  in
  "Figure 6.2: RCCE run time, off-chip shared memory vs on-chip MPB (32 \
   cores)\n\n"
  ^ Obs.render_table ~rule:true table ^ "\n"
  ^ Tabulate.bar_chart (List.map (fun r -> (r.name, r.improvement)) rows)
  ^ (if notes = [] then ""
     else "\nPlacement notes:\n" ^ String.concat "\n" notes ^ "\n")

(* --- Figure 6.3 ------------------------------------------------------------ *)

type fig_6_3_row = {
  cores : int;
  rcce_ms : float;
  speedup : float;   (* over the fixed 32-thread single-core baseline *)
  energy_j : float;
}

let fig_6_3_core_counts = [ 1; 2; 4; 8; 16; 24; 32; 48 ]

let fig_6_3_data ?(scale = Full) ?(baseline_threads = 32) () =
  let w =
    match scale with
    | Full -> Workloads.Suite.pi
    | Quick -> Workloads.Pi.make ~params:{ Workloads.Pi.steps = 1 lsl 16 } ()
  in
  let baseline =
    Workloads.Workload.run w
      (Workloads.Workload.Pthread_baseline baseline_threads)
  in
  List.map
    (fun cores ->
      let r =
        Workloads.Workload.run w
          (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, cores))
      in
      {
        cores;
        rcce_ms = Workloads.Workload.elapsed_ms r;
        speedup = Workloads.Workload.speedup ~baseline r;
        energy_j =
          Scc.Power.energy_joules Scc.Config.default ~active_cores:cores
            ~elapsed_ps:r.Workloads.Workload.elapsed_ps;
      })
    fig_6_3_core_counts

let fig_6_3 ?scale ?baseline_threads () =
  let rows = fig_6_3_data ?scale ?baseline_threads () in
  let table =
    [ "Cores"; "RCCE (ms)"; "Speedup vs 1-core Pthread"; "Energy (J)" ]
    :: List.map
         (fun r ->
           [ string_of_int r.cores;
             Printf.sprintf "%.2f" r.rcce_ms;
             Printf.sprintf "%.1fx" r.speedup;
             Printf.sprintf "%.3f" r.energy_j ])
         rows
  in
  "Figure 6.3: Pi Approximation speedup over the single-core Pthread \
   application, varying core count\n\n"
  ^ Obs.render_table ~rule:true table ^ "\n"
  ^ Tabulate.bar_chart
      (List.map (fun r -> (Printf.sprintf "%2d cores" r.cores, r.speedup)) rows)

(* --- Ablation A: partitioning strategies ----------------------------------- *)

(* Deterministic synthetic variable population: sizes and access counts
   from a small LCG, heavy-tailed so strategy differences show. *)
let synthetic_items ~count ~seed =
  let state = ref seed in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  List.init count (fun i ->
      let size_class = next () mod 10 in
      let bytes =
        if size_class < 6 then 4 + (next () mod 64)          (* scalars *)
        else if size_class < 9 then 256 + (next () mod 4096) (* arrays *)
        else 16_384 + (next () mod 65_536)                   (* big arrays *)
      in
      let accesses = 1 + (next () mod 10_000) in
      { Partition.Partitioner.var =
          Ir.Var_id.global (Printf.sprintf "v%d" i);
        bytes; accesses })

let ablation_partition () =
  let items = synthetic_items ~count:64 ~seed:20141215 in
  let spec = Partition.Memspec.scc in
  let configs =
    [ (Partition.Partitioner.Size_ascending, false, "size-ascending");
      (Partition.Partitioner.Size_ascending, true, "size-ascending+split");
      (Partition.Partitioner.Access_density, false, "access-density");
      (Partition.Partitioner.All_off_chip, false, "all-off-chip") ]
  in
  let capacities = [ 8 * 1024; 64 * 1024; 256 * 1024 ] in
  let rows =
    List.concat_map
      (fun capacity ->
        List.map
          (fun (strategy, allow_split, label) ->
            let r =
              Partition.Partitioner.partition ~strategy ~allow_split spec
                ~capacity items
            in
            [ Printf.sprintf "%d KB" (capacity / 1024);
              label;
              Printf.sprintf "%d B" r.Partition.Partitioner.on_chip_bytes;
              Printf.sprintf "%.1f%%"
                (100.0 *. Partition.Partitioner.on_chip_access_fraction r) ])
          configs)
      capacities
  in
  "Ablation A: Stage 4 partitioning strategies on 64 synthetic shared \
   variables\n(figure of merit: fraction of estimated accesses served \
   on-chip)\n\n"
  ^ Obs.render_table ~rule:true
      ([ "Capacity"; "Strategy"; "On-chip bytes"; "On-chip accesses" ] :: rows)

(* --- Ablation B: the end-to-end interpreter path --------------------------- *)

type interp_row = {
  label : string;
  elapsed_ms : float;
  output : string;
}

let interp_end_to_end ?(scale = Full) () =
  let nt, steps =
    match scale with Full -> (32, 65_536) | Quick -> (8, 8_192)
  in
  let src = Csrc.pi ~nt ~steps in
  let program = Cfront.Parser.program ~file:"pi_pthread.c" src in
  let pthread_result = Cexec.Interp.run_pthread program in
  let translated, _report = Translate.Driver.translate_program program in
  let rcce_result = Cexec.Interp.run_rcce ~ncores:nt translated in
  let row label (r : Cexec.Interp.result) =
    {
      label;
      elapsed_ms = float_of_int r.Cexec.Interp.elapsed_ps /. 1e9;
      output = String.trim r.Cexec.Interp.output;
    }
  in
  let rows =
    [ row (Printf.sprintf "Pthread program, %d threads on 1 core" nt)
        pthread_result;
      row (Printf.sprintf "Translated RCCE program on %d cores" nt)
        rcce_result ]
  in
  let speedup =
    float_of_int pthread_result.Cexec.Interp.elapsed_ps
    /. float_of_int rcce_result.Cexec.Interp.elapsed_ps
  in
  (rows, speedup)

let interp_experiment ?scale () =
  let rows, speedup = interp_end_to_end ?scale () in
  let table =
    [ "Configuration"; "Simulated time (ms)"; "Program output" ]
    :: List.map
         (fun r ->
           [ r.label; Printf.sprintf "%.3f" r.elapsed_ms;
             (match String.split_on_char '\n' r.output with
             | first :: _ -> first
             | [] -> "") ])
         rows
  in
  "Ablation B: the translator's own output executing on the simulated \
   SCC\n(Pi benchmark interpreted: original Pthreads vs translated \
   RCCE)\n\n"
  ^ Obs.render_table ~rule:true table
  ^ Printf.sprintf "\nEnd-to-end speedup: %.1fx\n" speedup

(* --- DVFS sweep --------------------------------------------------------------- *)

type dvfs_row = {
  freq_mhz : int;
  volts : float;
  watts : float;
  dvfs_ms : float;
  dvfs_energy_j : float;
}

(* The paper's section 5.1 describes the SCC's frequency/voltage envelope
   (0.7 V / 125 MHz / 25 W up to 1.14 V / 1 GHz / 125 W) and its
   per-domain control; this sweep runs the Pi benchmark at several core
   frequencies and reports the time/energy tradeoff the envelope buys. *)
let dvfs_points = [ 125; 320; 533; 800; 1000 ]

let dvfs_data ?(scale = Full) () =
  let w =
    match scale with
    | Full -> Workloads.Suite.pi
    | Quick -> Workloads.Pi.make ~params:{ Workloads.Pi.steps = 1 lsl 16 } ()
  in
  List.map
    (fun freq_mhz ->
      let cfg = { Scc.Config.default with Scc.Config.core_freq_mhz = freq_mhz } in
      let r =
        Workloads.Workload.run ~cfg w
          (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 32))
      in
      {
        freq_mhz;
        volts = Scc.Power.volts_for_freq freq_mhz;
        watts = Scc.Power.chip_watts ~freq_mhz ();
        dvfs_ms = Workloads.Workload.elapsed_ms r;
        dvfs_energy_j =
          Scc.Power.energy_joules cfg ~active_cores:32
            ~elapsed_ps:r.Workloads.Workload.elapsed_ps;
      })
    dvfs_points

let dvfs_experiment ?scale () =
  let rows = dvfs_data ?scale () in
  let table =
    [ "Core freq"; "Voltage"; "Chip power"; "Pi runtime"; "Energy" ]
    :: List.map
         (fun r ->
           [ Printf.sprintf "%d MHz" r.freq_mhz;
             Printf.sprintf "%.2f V" r.volts;
             Printf.sprintf "%.1f W" r.watts;
             Printf.sprintf "%.2f ms" r.dvfs_ms;
             Printf.sprintf "%.3f J" r.dvfs_energy_j ])
         rows
  in
  "DVFS sweep: the Pi benchmark (32 cores, off-chip) across the SCC's operating envelope\n(section 5.1: 0.7 V / 125 MHz / 25 W up to 1.14 V / 1 GHz / 125 W)\n\n"
  ^ Obs.render_table ~rule:true table

(* --- synchronization sensitivity ----------------------------------------------- *)

type sync_row = {
  sync_name : string;
  sync_baseline_ms : float;
  sync_rcce_ms : float;
  sync_speedup : float;
}

(* The paper: "because a Pthread mutex and hardware test-and-set register
   are not exactly the same, performance varies when converting a
   synchronization-dependent application."  Comparing the compute-bound
   best case against the lock-bound histogram makes the variation
   concrete. *)
let sync_sensitivity_data ?(scale = Full) ?(units = 32) () =
  let pairs =
    match scale with
    | Full ->
        [ Workloads.Suite.pi; Workloads.Suite.histogram ]
    | Quick ->
        [ Workloads.Pi.make ~params:{ Workloads.Pi.steps = 1 lsl 16 } ();
          Workloads.Histogram.make
            ~params:{ Workloads.Histogram.n = 1 lsl 13; bins = 64; locks = 8 }
            () ]
  in
  List.map
    (fun w ->
      let baseline =
        Workloads.Workload.run w (Workloads.Workload.Pthread_baseline units)
      in
      let rcce =
        Workloads.Workload.run w
          (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, units))
      in
      {
        sync_name = w.Workloads.Workload.name;
        sync_baseline_ms = Workloads.Workload.elapsed_ms baseline;
        sync_rcce_ms = Workloads.Workload.elapsed_ms rcce;
        sync_speedup = Workloads.Workload.speedup ~baseline rcce;
      })
    pairs

let sync_sensitivity ?scale ?units () =
  let rows = sync_sensitivity_data ?scale ?units () in
  let table =
    [ "Benchmark"; "Pthread 1-core (ms)"; "RCCE (ms)"; "Speedup" ]
    :: List.map
         (fun r ->
           [ r.sync_name;
             Printf.sprintf "%.2f" r.sync_baseline_ms;
             Printf.sprintf "%.2f" r.sync_rcce_ms;
             Printf.sprintf "%.1fx" r.sync_speedup ])
         rows
  in
  "Synchronization sensitivity: compute-bound vs lock-bound conversion
(mutex -> test-and-set register, 32 units)

"
  ^ Obs.render_table ~rule:true table

(* --- model sensitivity ---------------------------------------------------------- *)

(* How much do the memory-bound Figure 6.1 results depend on the one
   debatable model choice — blocking vs posted (write-combined) uncached
   stores?  The SCC has a write-combine buffer; the calibrated figures
   use blocking stores. *)
let model_sensitivity ?(scale = Full) () =
  let memory_benchmarks =
    match scale with
    | Full -> [ Workloads.Suite.stream; Workloads.Suite.dot ]
    | Quick ->
        [ Workloads.Stream.make
            ~params:{ Workloads.Stream.n = 1 lsl 13; reps = 2; block = 256 }
            ();
          Workloads.Dot.make
            ~params:{ Workloads.Dot.n = 1 lsl 13; reps = 2; block = 256 } () ]
  in
  let run ~posted w =
    let cfg =
      { Scc.Config.default with Scc.Config.posted_shared_writes = posted }
    in
    Workloads.Workload.elapsed_ms
      (Workloads.Workload.run ~cfg w
         (Workloads.Workload.Rcce (Workloads.Workload.Off_chip, 32)))
  in
  let rows =
    List.map
      (fun w ->
        let blocking = run ~posted:false w in
        let posted = run ~posted:true w in
        [ w.Workloads.Workload.name;
          Printf.sprintf "%.2f ms" blocking;
          Printf.sprintf "%.2f ms" posted;
          Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. (posted /. blocking))) ])
      memory_benchmarks
  in
  "Model sensitivity: blocking vs posted uncached shared stores
(the SCC's write-combine buffer; the calibrated figures use blocking)

"
  ^ Obs.render_table ~rule:true
      ([ "Benchmark"; "Blocking stores"; "Posted stores"; "Faster by" ]
      :: rows)

(* --- section 7.2: more threads than cores ---------------------------------------- *)

(* A 96-thread Pi program (double the chip) translated with the
   many-to-one task mapping and interpreted at increasing core counts —
   the scaling path the paper's section 7.2 sketches. *)
let many_to_one_scaling ?(scale = Full) () =
  let nt, steps =
    match scale with Full -> (96, 32_768) | Quick -> (24, 4_096)
  in
  let src = Csrc.pi ~nt ~steps in
  let program = Cfront.Parser.program ~file:"pi_many.c" src in
  let baseline = Cexec.Interp.run_pthread program in
  let core_counts =
    List.filter (fun c -> c <= 48) [ 8; 16; 32; 48 ]
  in
  let rows =
    List.map
      (fun ncores ->
        let options =
          { Translate.Pass.default_options with
            Translate.Pass.ncores; many_to_one = true }
        in
        let translated, _ =
          Translate.Driver.translate_program ~options program
        in
        let r = Cexec.Interp.run_rcce ~ncores translated in
        [ string_of_int ncores;
          Printf.sprintf "%.3f ms"
            (float_of_int r.Cexec.Interp.elapsed_ps /. 1e9);
          Printf.sprintf "%.1fx"
            (float_of_int baseline.Cexec.Interp.elapsed_ps
            /. float_of_int r.Cexec.Interp.elapsed_ps) ])
      core_counts
  in
  Printf.sprintf
    "Section 7.2: %d threads mapped many-to-one onto fewer cores
(baseline: the %d-thread Pthread program on one core, %.3f ms)

"
    nt nt
    (float_of_int baseline.Cexec.Interp.elapsed_ps /. 1e9)
  ^ Obs.render_table ~rule:true
      ([ "Cores"; "Interpreted RCCE"; "Speedup" ] :: rows)

(* --- everything ------------------------------------------------------------- *)

(* --- the shared-traffic optimizer ------------------------------------------ *)

type opt_row = {
  opt_label : string;
  opt_ncores : int;
  opt_naive_ms : float;
  opt_o_ms : float;
  opt_naive_loads : int;
  opt_o_loads : int;
  opt_speedup : float;
}

let opt_end_to_end ?(scale = Full) () =
  let nt, reps = match scale with Full -> (32, 8) | Quick -> (8, 4) in
  let bench label ncores src =
    let program = Cfront.Parser.program ~file:(label ^ ".c") src in
    let run optimize =
      let options =
        { Translate.Pass.default_options with
          Translate.Pass.ncores; optimize }
      in
      let translated, _ = Translate.Driver.translate_program ~options program in
      Cexec.Interp.run_rcce ~ncores translated
    in
    let naive = run false in
    let opt = run true in
    if not (String.equal naive.Cexec.Interp.output opt.Cexec.Interp.output)
    then
      invalid_arg
        (Printf.sprintf "optimizer changed the output of %s" label);
    let loads (r : Cexec.Interp.result) =
      Scc.Stats.total_shared_dram_loads
        (Scc.Engine.stats r.Cexec.Interp.engine)
    in
    {
      opt_label = label;
      opt_ncores = ncores;
      opt_naive_ms = float_of_int naive.Cexec.Interp.elapsed_ps /. 1e9;
      opt_o_ms = float_of_int opt.Cexec.Interp.elapsed_ps /. 1e9;
      opt_naive_loads = loads naive;
      opt_o_loads = loads opt;
      opt_speedup =
        float_of_int naive.Cexec.Interp.elapsed_ps
        /. float_of_int (max 1 opt.Cexec.Interp.elapsed_ps);
    }
  in
  [
    bench
      (Printf.sprintf "dot (n=512, reps=%d)" reps)
      nt
      (Csrc.dot_reps ~reps ~nt ~n:512);
    bench "hot-loop (steps=4096)" nt (Csrc.hot_loop ~nt ~steps:4096);
  ]

let opt_experiment ?scale () =
  let rows = opt_end_to_end ?scale () in
  let table =
    [ "Benchmark"; "Cores"; "Naive (ms)"; "-O (ms)"; "Shared loads";
      "Shared loads -O"; "Speedup" ]
    :: List.map
         (fun r ->
           [ r.opt_label;
             string_of_int r.opt_ncores;
             Printf.sprintf "%.3f" r.opt_naive_ms;
             Printf.sprintf "%.3f" r.opt_o_ms;
             string_of_int r.opt_naive_loads;
             string_of_int r.opt_o_loads;
             Printf.sprintf "%.2fx" r.opt_speedup ])
         rows
  in
  "Optimized translation: the shared-traffic optimizer (-O) on the \
   simulated SCC\n(PRE of shared loads + MPB software caching; both \
   runs print identical output)\n\n"
  ^ Obs.render_table ~rule:true table

(* --- characterization sweep (lib/synth) ----------------------------------- *)

(* Thousands of synthetic configs through the fixed-order domain pool:
   each config runs all four placement policies on its own engine, so the
   thunks are independent and [Pool.map_fixed] keeps the row order — and
   therefore the JSONL and every summary table — byte-identical for any
   [--jobs].  [Quick] is the CI grid; [Full] is the characterization grid
   EXPERIMENTS.md reports (hours of simulation). *)

type sweep_result = {
  sweep_jsonl : string;
  sweep_summary : string;
  sweep_configs : int;
  sweep_losses : Synth.Sweep.loss list;
}

let sweep_ratio rows num_policy den_policy =
  match
    ( Synth.Sweep.find_measurement rows num_policy,
      Synth.Sweep.find_measurement rows den_policy )
  with
  | Some n, Some d when d.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps > 0 ->
      Some
        (float_of_int n.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps
        /. float_of_int d.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps)
  | _ -> None

let sweep_surface groups =
  (* one table per DVFS point: mean (all-dram / greedy) elapsed ratio
     over the configs at each (threads, sharing) cell *)
  let uniq f =
    List.sort_uniq compare
      (List.map (fun (sp, _) -> f sp) groups)
  in
  let dvfs_points = uniq (fun sp -> sp.Synth.Spec.dvfs_mhz) in
  let threads_vals = uniq (fun sp -> sp.Synth.Spec.threads) in
  let sharing_vals = uniq (fun sp -> sp.Synth.Spec.sharing) in
  let buf = Buffer.create 1024 in
  List.iter
    (fun dvfs ->
      Buffer.add_string buf
        (Printf.sprintf
           "Speedup of greedy placement over all-off-chip at %d MHz\n\
            (mean elapsed ratio all-dram / greedy; > 1.00x = greedy wins)\n\n"
           dvfs);
      let header =
        "threads \\ sharing"
        :: List.map string_of_int sharing_vals
      in
      let rows =
        List.map
          (fun t ->
            string_of_int t
            :: List.map
                 (fun d ->
                   let samples =
                     List.filter_map
                       (fun (sp, rows) ->
                         if
                           sp.Synth.Spec.threads = t
                           && sp.Synth.Spec.sharing = d
                           && sp.Synth.Spec.dvfs_mhz = dvfs
                         then
                           sweep_ratio rows Synth.Kernel.All_dram
                             Synth.Kernel.Greedy
                         else None)
                       groups
                   in
                   match samples with
                   | [] -> "-"
                   | l ->
                       Printf.sprintf "%.2fx"
                         (List.fold_left ( +. ) 0.0 l
                         /. float_of_int (List.length l)))
                 sharing_vals)
          threads_vals
      in
      Buffer.add_string buf (Obs.render_table ~rule:true (header :: rows));
      Buffer.add_char buf '\n')
    dvfs_points;
  Buffer.contents buf

let sweep_best_policy groups =
  (* a config's best policy is the argmin of elapsed time, ties going to
     the first policy in [Kernel.policies] order *)
  let best_of (_, rows) =
    let elapsed q =
      match Synth.Sweep.find_measurement rows q with
      | Some r -> r.Synth.Sweep.r_m.Synth.Kernel.m_elapsed_ps
      | None -> max_int
    in
    List.fold_left
      (fun acc q -> if elapsed q < elapsed acc then q else acc)
      (List.hd Synth.Kernel.policies)
      Synth.Kernel.policies
  in
  let bests = List.map best_of groups in
  Obs.render_table ~rule:true
    ([ "Policy"; "Fastest on (configs)" ]
    :: List.map
         (fun p ->
           [ Synth.Kernel.policy_to_string p;
             string_of_int (List.length (List.filter (fun b -> b = p) bests)) ])
         Synth.Kernel.policies)

let losses_report losses =
  match losses with
  | [] ->
      "Greedy-placement losses (> "
      ^ string_of_int Synth.Sweep.loss_threshold_pct
      ^ "% vs best forced alternative): none found on this grid.\n"
  | l ->
      Printf.sprintf
        "Greedy-placement losses (> %d%% vs best forced alternative): %d\n%s"
        Synth.Sweep.loss_threshold_pct (List.length l)
        (String.concat "\n"
           (List.map (fun x -> "  " ^ Synth.Sweep.loss_to_string x) l))
      ^ "\n"

let run_sweep ?(scale = Full) ?(jobs = 1) ?limit () =
  let g =
    match scale with Quick -> Synth.Spec.Quick | Full -> Synth.Spec.Full
  in
  let specs = Synth.Spec.grid g in
  let specs =
    match limit with
    | Some n when n >= 0 -> List.filteri (fun i _ -> i < n) specs
    | _ -> specs
  in
  let row_groups =
    Pool.map_fixed ~jobs
      (List.map (fun sp () -> Synth.Sweep.rows_of_spec sp) specs)
  in
  let groups = List.combine specs row_groups in
  let all_rows = List.concat row_groups in
  let jsonl = Synth.Sweep.jsonl_of_rows all_rows ^ "\n" in
  let losses = List.filter_map Synth.Sweep.loss_of_rows row_groups in
  let unverified =
    List.length
      (List.filter
         (fun r -> not r.Synth.Sweep.r_m.Synth.Kernel.m_verified)
         all_rows)
  in
  let summary =
    Printf.sprintf
      "Characterization sweep: %d configs x %d policies (grid=%s)\n\
       Row order is the canonical grid order; identical for any --jobs.\n\
       Verified: %s\n\n"
      (List.length specs)
      (List.length Synth.Kernel.policies)
      (Synth.Spec.grid_to_string g)
      (if unverified = 0 then "all rows"
       else Printf.sprintf "%d rows FAILED verification" unverified)
    ^ sweep_surface groups ^ "\n" ^ sweep_best_policy groups ^ "\n\n"
    ^ losses_report losses
  in
  { sweep_jsonl = jsonl;
    sweep_summary = summary;
    sweep_configs = List.length specs;
    sweep_losses = losses }

let sections =
  [ ("table-4.1", fun _scale -> table_4_1 ());
    ("table-4.2", fun _scale -> table_4_2 ());
    ("table-6.1", fun _scale -> table_6_1 ());
    ("translate-example", fun _scale -> translation_example ());
    ("fig-6.1", fun scale -> fig_6_1 ~scale ());
    ("fig-6.2", fun scale -> fig_6_2 ~scale ());
    ("fig-6.3", fun scale -> fig_6_3 ~scale ());
    ("ablation-partition", fun _scale -> ablation_partition ());
    ("interp", fun scale -> interp_experiment ~scale ());
    ("dvfs", fun scale -> dvfs_experiment ~scale ());
    ("sync", fun scale -> sync_sensitivity ~scale ());
    ("model-sensitivity", fun scale -> model_sensitivity ~scale ());
    ("many-to-one", fun scale -> many_to_one_scaling ~scale ());
    ("opt", fun scale -> opt_experiment ~scale ()) ]

let section_names = List.map fst sections

let run_all ?(scale = Full) ?(jobs = 1) () =
  (* Force the shared example session (and its memoized pipeline facts)
     in this domain before any worker can race to do it: from here on
     the session is only read. *)
  ignore (analysis_of_example ());
  let bodies =
    Pool.map_fixed ~jobs
      (List.map (fun (_, f) () -> f scale) sections)
  in
  let rule = String.make 72 '=' in
  Printf.sprintf "Scale: %s\n%s\n" (scale_to_string scale) rule
  ^ String.concat (Printf.sprintf "\n%s\n" rule) bodies

let run_section ?(scale = Full) ?(jobs = 1) name =
  match name with
  | "all" -> Ok (run_all ~scale ~jobs ())
  | "sweep" -> Ok ((run_sweep ~scale ~jobs ()).sweep_summary)
  | name -> begin
      match List.assoc_opt name sections with
      | Some f -> Ok (f scale)
      | None ->
          Error
            (Printf.sprintf "unknown section %S (have: all, sweep, %s)" name
               (String.concat ", " section_names))
    end
