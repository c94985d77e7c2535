(* sim_bench — simulator throughput, written to BENCH_sim.json.

   Per-component metrics, so a regression names its culprit instead of
   showing up as one opaque events/s delta:

   - interp (the headline): events/s interpreting the Pi Pthread
     program at 1024 threads — the configuration every ROADMAP sweep
     item is gated on.  "Events" are scheduler resumes
     (Scc.Engine.events), a pure function of the simulated schedule, so
     the rate is comparable across implementations that produce the
     same results.
   - interp_8: the same program at 8 threads (slice-rotation heavy).
   - sched_raw: a synthetic workload performing compute/load effects
     directly against the engine API with no C interpreter at all —
     the scheduler + effect-machinery + memory-model ceiling.  If this
     figure regresses, the engine regressed; if it holds while the
     interp figures drop, the interpreter regressed.
   - sweep: the Figure 6.1 sweep (each benchmark in Pthread baseline
     and translated RCCE form) end to end, configs/s.
   - pool: the wall-clock speedup of running independent simulations
     on the domain pool (Exp.Pool) — >1 on a multi-core host, ~1 on a
     single CPU (see EXPERIMENTS.md).

   Each measurement is best-of-N wall time: the simulator is
   deterministic, so the minimum is the least-noise estimate.

     sim_bench [--quick] [--out FILE] [--check BASELINE] [--max-regress F]

   --check compares headline, interp_8, sched_raw and sweep figures
   against a previously written BENCH_sim.json and exits 1 when any
   regresses by more than --max-regress (a fraction, default 0.30),
   naming the regressed component(s) and the implied attribution.  The
   observability CI step re-runs the gate at 0.05 to hold the
   instrumented-but-disabled simulator within 5% of the committed
   baseline. *)

type meas = {
  label : string;
  events : int;
  best_s : float;
  events_per_sec : float;
}

let best_of ~iters f =
  let best = ref infinity in
  let events = ref 0 in
  for _ = 1 to iters do
    let t0 = Unix.gettimeofday () in
    let ev = f () in
    let dt = Unix.gettimeofday () -. t0 in
    events := ev;
    if dt < !best then best := dt
  done;
  (!events, !best)

let bench_pi ~label ~nt ~steps ~iters =
  let src = Exp.Csrc.pi ~nt ~steps in
  let program = Cfront.Parser.program ~file:"pi.c" src in
  ignore (Cexec.Interp.run_pthread program);
  let events, best =
    best_of ~iters (fun () ->
        let r = Cexec.Interp.run_pthread program in
        Scc.Engine.events r.Cexec.Interp.engine)
  in
  { label; events; best_s = best; events_per_sec = float_of_int events /. best }

(* The engine with no interpreter in front of it: contexts time-sharing
   one core, each alternating a short compute burst with a private-line
   load — the same effect mix the Pi run generates, minus all
   interpretation.  This is the scheduler/effect/memory-model ceiling. *)
let bench_sched_raw ~nctx ~rounds ~iters =
  let run () =
    let eng = Scc.Engine.create () in
    let addr =
      Scc.Memmap.alloc (Scc.Engine.memmap eng) (Scc.Memmap.Private 0) ~bytes:64
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
    Scc.Engine.events eng
  in
  ignore (run ());
  let events, best = best_of ~iters run in
  {
    label = Printf.sprintf "raw-%d-ctx-compute-load" nctx;
    events;
    best_s = best;
    events_per_sec = float_of_int events /. best;
  }

let bench_sweep ~iters =
  ignore (Exp.Experiments.fig_6_1_data ~scale:Exp.Experiments.Quick ());
  let best = ref infinity in
  let configs = ref 0 in
  for _ = 1 to iters do
    let t0 = Unix.gettimeofday () in
    let rows = Exp.Experiments.fig_6_1_data ~scale:Exp.Experiments.Quick () in
    let dt = Unix.gettimeofday () -. t0 in
    configs := 2 * List.length rows;
    if dt < !best then best := dt
  done;
  (!configs, !best, float_of_int !configs /. !best)

(* Domain-pool speedup for independent simulations: four Pi runs,
   jobs=1 vs jobs=pool.  Returns (pool jobs, speedup). *)
let bench_pool ~steps ~iters =
  let src = Exp.Csrc.pi ~nt:32 ~steps in
  let program = Cfront.Parser.program ~file:"pi.c" src in
  let pool_jobs = min 4 (Exp.Pool.default_jobs ()) in
  let sim () = ignore (Cexec.Interp.run_pthread program) in
  let thunks = List.init 4 (fun _ -> sim) in
  let time jobs =
    let best = ref infinity in
    for _ = 1 to iters do
      let t0 = Unix.gettimeofday () in
      Exp.Pool.map_fixed ~jobs thunks |> ignore;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let seq_s = time 1 in
  let par_s = time pool_jobs in
  (pool_jobs, if par_s > 0. then seq_s /. par_s else 1.)

let meas_json m =
  Printf.sprintf
    "{\"label\": %S, \"events\": %d, \"best_s\": %.6f, \"events_per_sec\": \
     %.0f}"
    m.label m.events m.best_s m.events_per_sec

let json_of ~mode ~interp ~moderate ~raw ~sweep:(configs, sweep_s, cps)
    ~pool:(pool_jobs, pool_speedup) =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"hsmc-sim-bench-3\",\n";
  Buffer.add_string b (Printf.sprintf "  \"mode\": %S,\n" mode);
  Buffer.add_string b "  \"components\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"interp\": %s,\n" (meas_json interp));
  Buffer.add_string b
    (Printf.sprintf "    \"interp_8\": %s,\n" (meas_json moderate));
  Buffer.add_string b
    (Printf.sprintf "    \"sched_raw\": %s,\n" (meas_json raw));
  Buffer.add_string b
    (Printf.sprintf
       "    \"sweep\": {\"label\": \"fig-6.1-quick\", \"configs\": %d, \
        \"best_s\": %.6f, \"configs_per_sec\": %.2f},\n"
       configs sweep_s cps);
  Buffer.add_string b
    (Printf.sprintf
       "    \"pool\": {\"pool_jobs\": %d, \"pool_speedup\": %.2f}\n"
       pool_jobs pool_speedup);
  Buffer.add_string b "  },\n";
  Buffer.add_string b
    (Printf.sprintf "  \"headline_events_per_sec\": %.0f\n"
       interp.events_per_sec);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Minimal field scan — the file is our own fixed format.  Finds the
   number following ["key": ] anywhere in the file. *)
let scan_number s key =
  let key = Printf.sprintf "\"%s\":" key in
  let kl = String.length key in
  let sl = String.length s in
  let rec find i =
    if i + kl > sl then None
    else if String.sub s i kl = key then Some (i + kl)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j ->
      let k = ref j in
      while
        !k < sl
        && (s.[!k] = ' ' || s.[!k] = '.' || s.[!k] = '-'
           || (s.[!k] >= '0' && s.[!k] <= '9'))
      do
        incr k
      done;
      float_of_string_opt (String.trim (String.sub s j (!k - j)))

let read_file file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Per-component figures from a baseline file.  Components missing from
   an older schema are skipped, so a check against an old baseline still
   gates the figures both files carry. *)
let baseline_figures s =
  let after key sub = scan_number s sub |> Option.map (fun v -> (key, v)) in
  (* events_per_sec inside one component object: scan from the component
     key onwards *)
  let component name =
    let key = Printf.sprintf "\"%s\":" name in
    let kl = String.length key in
    let sl = String.length s in
    let rec find i =
      if i + kl > sl then None
      else if String.sub s i kl = key then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
        scan_number (String.sub s i (min (sl - i) 400)) "events_per_sec"
        |> Option.map (fun v -> (name, v))
  in
  List.filter_map
    (fun x -> x)
    [
      after "headline" "headline_events_per_sec";
      component "interp_8";
      component "sched_raw";
      after "sweep_configs_per_sec" "configs_per_sec";
    ]

let () =
  let quick = ref false in
  let out = ref "BENCH_sim.json" in
  let check = ref None in
  let max_regress = ref 0.30 in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--check" :: f :: rest ->
        check := Some f;
        parse rest
    | "--max-regress" :: f :: rest -> (
        match float_of_string_opt f with
        | Some v when v > 0. && v < 1. ->
            max_regress := v;
            parse rest
        | _ ->
            Printf.eprintf
              "sim_bench: --max-regress wants a fraction in (0, 1), got %S\n"
              f;
            exit 64)
    | a :: _ ->
        Printf.eprintf
          "sim_bench: unknown argument %S\n\
           usage: sim_bench [--quick] [--out FILE] [--check BASELINE] \
           [--max-regress F]\n"
          a;
        exit 64
  in
  parse (List.tl (Array.to_list Sys.argv));
  let steps = if !quick then 16384 else 65536 in
  let iters = if !quick then 3 else 10 in
  let interp =
    bench_pi ~label:"pi-pthread-1024-threads" ~nt:1024 ~steps ~iters
  in
  let moderate = bench_pi ~label:"pi-pthread-8-threads" ~nt:8 ~steps ~iters in
  let raw =
    bench_sched_raw ~nctx:256
      ~rounds:(if !quick then 128 else 512)
      ~iters
  in
  let sweep = bench_sweep ~iters:(if !quick then 2 else 5) in
  let pool = bench_pool ~steps ~iters:(if !quick then 2 else 3) in
  let json =
    json_of
      ~mode:(if !quick then "quick" else "full")
      ~interp ~moderate ~raw ~sweep ~pool
  in
  let oc = open_out !out in
  output_string oc json;
  close_out oc;
  print_string json;
  match !check with
  | None -> ()
  | Some baseline_file ->
      let base = baseline_figures (read_file baseline_file) in
      if base = [] then begin
        Printf.eprintf "sim_bench: cannot read baseline %s\n" baseline_file;
        exit 65
      end
      else begin
        let current =
          [
            ("headline", interp.events_per_sec);
            ("interp_8", moderate.events_per_sec);
            ("sched_raw", raw.events_per_sec);
            ("sweep_configs_per_sec",
             let _, _, cps = sweep in
             cps);
          ]
        in
        (* every compared component gets a verdict in the one run — a
           multi-component regression shows every culprit at once, never
           just the first *)
        let verdicts =
          List.filter_map
            (fun (key, basev) ->
              match List.assoc_opt key current with
              | None -> None
              | Some now ->
                  let floor = (1. -. !max_regress) *. basev in
                  Some (key, basev, now, floor, now >= floor))
            base
        in
        let regressed =
          List.filter (fun (_, _, _, _, ok) -> not ok) verdicts
        in
        let out = if regressed = [] then stdout else stderr in
        Printf.fprintf out
          "sim_bench: %s: headline %.0f events/s vs baseline (max regress \
           %.0f%%)\n"
          (if regressed = [] then "ok" else "REGRESSION")
          interp.events_per_sec
          (100. *. !max_regress);
        List.iter
          (fun (key, basev, now, floor, ok) ->
            Printf.fprintf out
              "  %-22s %12.0f  (baseline %12.0f, floor %12.0f)  %s\n" key
              now basev floor
              (if ok then "ok" else "REGRESSED"))
          verdicts;
        if regressed <> [] then begin
          let r k =
            List.exists (fun (key, _, _, _, _) -> key = k) regressed
          in
          let attribution =
            if r "sched_raw" then
              "engine/scheduler regression (raw effect path slowed down)"
            else if r "headline" || r "interp_8" then
              "interpreter regression (engine raw path held)"
            else "see component list above"
          in
          Printf.eprintf "sim_bench: attribution: %s\n" attribution;
          exit 1
        end
      end
