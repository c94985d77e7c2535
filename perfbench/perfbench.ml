(* perfbench — one benchmark run of the hsmc toolchain.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A workload is a set of inputs and a request, timed end to end:

   - translate: `hsmcc translate` of small programs — every Exp.Csrc
     kernel with -O at 4, 8, 16 and 32 threads, and a fixed corpus from
     lib/conform's generator: parse, the Stage 1-4 session facts, the
     Stage 5 passes, emit the RCCE C.
   - simulate: translate, then `hsmcc run --cores 8` the translation —
     the Figure 6.1 kernels at sizes where the simulated run dominates.
   - explain: the same at smaller sizes with the profiler and the
     critical-path recorder on, and the --explain report rendered.
   - sweep: one lib/synth sweep point — its access traces replayed under
     all four placement policies, and the JSONL rows rendered.

   The seed moves kernel sizes by at most 2%, seeds the synthetic access
   streams and orders the requests: the same seed gives the same inputs,
   and every seed gives requests of comparable cost.

   Set-up (build the inputs, run one request per input and keep its
   answer as the reference) runs three times; setup_s is the median.
   The timed loop then cycles the inputs in a seeded order until
   --seconds have passed; every request must reproduce its input's
   reference answer.  Afterwards the conformance oracle checks every
   input once: translate its C program (a sweep point's emitted one),
   run the translation on the SCC and the original on the single-core
   Pthread baseline, and require every baseline line once per core; the
   references must agree with the oracle's translation and run.

   The last line on stdout is one JSON object: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A per-layer
   time is the self time of one call into that layer, averaged over the
   timed loop and the checks; the counts are the totals of one oracle
   pass over the inputs. *)

(* --- host speed ---------------------------------------------------------------- *)

(* Times are process CPU seconds (the harness is single-threaded and does
   no I/O), scaled to a host of fixed speed.  The speed of a shared host
   drifts by tens of percent over seconds to minutes, far more than the
   changes the benchmark must resolve.  So a calibration loop owned by
   the benchmark — hashing, sorting and float work, and a few megabytes
   of small records, like the toolchain's own mix — runs between
   requests, at most every [interval_s], and each measured span is scaled
   by [nominal_s / c], where c is the median of the last [window]
   calibrations: a span reads as it would on a host where the loop takes
   [nominal_s]. *)
let now = Sys.time

let nominal_s = 0.0012
let window = 15
let interval_s = 0.02

type cell = { a : int; b : float; c : int }

let calibrate () =
  let t0 = now () in
  let h = Hashtbl.create 256 in
  let l = ref [] in
  for i = 0 to 999 do
    let k = (i * 7919) land 1023 in
    Hashtbl.replace h k (float_of_int i);
    l := (Hashtbl.find h k *. 0.5) :: !l
  done;
  let cells =
    Array.init 32768 (fun i -> { a = i; b = float_of_int i; c = i lxor 5 })
  in
  ignore
    (Sys.opaque_identity
       ( List.fold_left ( +. ) 0. (List.sort compare !l),
         Array.fold_left (fun acc x -> acc + x.a + x.c + int_of_float x.b) 0
           cells ));
  now () -. t0

let samples = Array.make window 0.
let n_samples = ref 0
let speed = ref 1.
let last = ref neg_infinity

let recalibrate () =
  if now () -. !last >= interval_s then begin
    samples.(!n_samples mod window) <- calibrate ();
    last := now ();
    incr n_samples;
    let recent = Array.sub samples 0 (min !n_samples window) in
    Array.sort compare recent;
    speed := nominal_s /. recent.(Array.length recent / 2)
  end

(* Scaled seconds since [t0]. *)
let since t0 = (now () -. t0) *. !speed

(* --- inputs ---------------------------------------------------------------- *)

type item = {
  name : string;
  source : string;             (* the C program; a sweep point's emitted one *)
  ncores : int;                (* cores of the RCCE run *)
  options : Session.options;
  spec : Synth.Spec.t option;  (* sweep points *)
}

let rng_for seed name =
  Conform.Rng.create ((seed * 1_000_003) + Hashtbl.hash name)

(* [base] moved by at most 2%, drawn from the seed. *)
let jitter seed name base =
  let d = base / 50 in
  base + Conform.Rng.range (rng_for seed name) (-d) d

let kernel_items seed ~nt ~scale =
  let j name base = jitter seed name (base * scale) in
  List.map
    (fun (name, source) ->
      { name = Printf.sprintf "%s%d.c" name nt;
        source;
        ncores = nt;
        options =
          { Session.default_options with Session.ncores = nt; optimize = true };
        spec = None })
    [ ("pi", Exp.Csrc.pi ~nt ~steps:(j "pi" 512));
      ("primes", Exp.Csrc.primes ~nt ~limit:(j "primes" 48));
      ("sum35", Exp.Csrc.sum35 ~nt ~bound:(j "sum35" 512));
      ("dot", Exp.Csrc.dot ~nt ~n:(j "dot" 256));
      ("dot_reps", Exp.Csrc.dot_reps ~reps:4 ~nt ~n:(j "dot_reps" 64));
      ("hot_loop", Exp.Csrc.hot_loop ~nt ~steps:(j "hot_loop" 64));
      ("stream", Exp.Csrc.stream ~nt ~n:(j "stream" 128));
      ("lu", Exp.Csrc.lu ~nt ~n:(8 + min 8 scale));
      ("mutex_counter", Exp.Csrc.mutex_counter ~nt ~iters:(j "mutex" 16)) ]

(* A fixed corpus: the cost of a generated program varies too widely for
   a seed-drawn set to keep the latency tail steady. *)
let generated_items ~count =
  List.init count (fun i ->
      let spec, program = Conform.Gen.generate ~seed:(i + 1) in
      { name = Printf.sprintf "gen%d.c" i;
        source = Conform.Gen.source_of_program program;
        ncores = spec.Conform.Gen.run_cores;
        options = (Conform.Oracle.config_of_spec spec).Conform.Oracle.options;
        spec = None })

(* Sweep points of fixed shape — threads, sharing degree, hot footprint,
   all on the quick grid's axes; the seed drives their access streams. *)
let sweep_items seed =
  List.mapi
    (fun i (threads, sharing, n_shared) ->
      let sp =
        { Synth.Spec.seed = (seed * 16) + i; threads; sharing; n_shared;
          n_cold = 64; n_private = 64; read_pct = 95; shared_pct = 80;
          insns = 100; compute = 8; phases = 1; dvfs_mhz = 533 }
      in
      { name = Printf.sprintf "synth%d.c" i;
        source = Synth.Emit.source_of_spec sp;
        ncores = threads;
        options = (Synth.Emit.oracle_config sp).Conform.Oracle.options;
        spec = Some sp })
    [ (2, 1, 256); (2, 2, 2048); (4, 2, 256); (4, 4, 2048); (8, 1, 256);
      (8, 4, 2048) ]

let items_of workload seed =
  match workload with
  | "translate" ->
      List.concat_map
        (fun nt -> kernel_items seed ~nt ~scale:1)
        [ 4; 8; 16; 32 ]
      @ generated_items ~count:24
  | "simulate" -> kernel_items seed ~nt:8 ~scale:8
  | "explain" -> kernel_items seed ~nt:8 ~scale:4
  | "sweep" -> sweep_items seed
  | other -> invalid_arg ("unknown workload " ^ other)

(* --- layers ------------------------------------------------------------------ *)

type layer = { mutable calls : int; mutable secs : float }

let parse_l = { calls = 0; secs = 0. }
let analysis_l = { calls = 0; secs = 0. }  (* Stage 1-4 fact providers *)
let passes_l = { calls = 0; secs = 0. }    (* Stage 5, facts excluded *)
let simulate_l = { calls = 0; secs = 0. }
let report_l = { calls = 0; secs = 0. }
let layers = [ parse_l; analysis_l; passes_l; simulate_l; report_l ]

let charge l secs =
  l.calls <- l.calls + 1;
  l.secs <- l.secs +. secs

let timed l f =
  let t0 = now () in
  let r = f () in
  charge l (since t0);
  r

(* Simulated events, and the seconds of the runs that produced them. *)
let events = ref 0
let event_secs = ref 0.

let simulate run =
  let t0 = now () in
  let r = run () in
  let dt = since t0 in
  charge simulate_l dt;
  events := !events + Scc.Engine.events r.Cexec.Interp.engine;
  event_secs := !event_secs +. dt;
  r

let parse it =
  timed parse_l (fun () -> Cfront.Parser.program ~file:it.name it.source)

let translate it program =
  let session = Session.create ~file:it.name ~options:it.options program in
  let t0 = now () in
  let translated, _ = Translate.Driver.translate_session session in
  let dt = since t0 in
  let facts_s =
    !speed
    *. List.fold_left
         (fun acc (r : Session.timing) ->
           if r.Session.t_kind = `Fact then acc +. r.Session.t_wall_s else acc)
         0. (Session.timings session)
  in
  charge analysis_l facts_s;
  charge passes_l (dt -. facts_s);
  (translated, Session.facts_computed session)

let emit translated =
  Digest.string (timed report_l (fun () -> Cfront.Pretty.program translated))

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* --- requests ------------------------------------------------------------------ *)

(* What a request produced; equal answers mean equal outputs. *)
type answer = {
  text : Digest.t;      (* the translated C *)
  output : string list; (* the RCCE run's output lines, sorted *)
  report : Digest.t;    (* the --explain report or the sweep rows *)
  sound : bool;         (* accounting identity exact, sweep rows verified *)
}

let no_text = Digest.string ""

let request workload it =
  match (workload, it.spec) with
  | "sweep", Some sp ->
      let rows = timed simulate_l (fun () -> Synth.Sweep.rows_of_spec sp) in
      let jsonl = timed report_l (fun () -> Synth.Sweep.jsonl_of_rows rows) in
      { text = no_text; output = []; report = Digest.string jsonl;
        sound =
          rows <> []
          && List.for_all
               (fun r -> r.Synth.Sweep.r_m.Synth.Kernel.m_verified)
               rows }
  | _ ->
      let translated, _ = translate it (parse it) in
      let text = emit translated in
      if workload = "translate" then
        { text; output = []; report = no_text; sound = true }
      else begin
        let explain = workload = "explain" in
        let profile = if explain then Some (Scc.Profile.create ()) else None in
        let critpath = if explain then Some (Scc.Critpath.create ()) else None in
        let run =
          simulate (fun () ->
              Cexec.Interp.run_rcce ?profile ?critpath ~ncores:it.ncores
                translated)
        in
        let report, sound =
          match critpath with
          | None -> (no_text, true)
          | Some cp ->
              timed report_l (fun () ->
                  ( Digest.string
                      (Scc.Critpath.render ?profile cp
                      ^ Scc.Critpath.to_json ?profile cp),
                    Scc.Critpath.identity_ok cp ))
        in
        { text; output = List.sort compare (lines run.Cexec.Interp.output);
          report; sound }
      end

(* --- the oracle check ----------------------------------------------------------- *)

type counts = { facts : int; sim_events : int; shared_loads : int }

(* Translate the input's C program, run it both ways, and hold the
   reference answer to the result. *)
let oracle workload it (reference : answer) =
  let program = parse it in
  let translated, facts = translate it program in
  let text = emit translated in
  let events0 = !events in
  let conv =
    simulate (fun () -> Cexec.Interp.run_rcce ~ncores:it.ncores translated)
  in
  let base = simulate (fun () -> Cexec.Interp.run_pthread program) in
  let conv_lines = List.sort compare (lines conv.Cexec.Interp.output) in
  let once = lines base.Cexec.Interp.output in
  let agree =
    once <> []
    && List.sort compare (List.concat (List.init it.ncores (fun _ -> once)))
       = conv_lines
  in
  let ok =
    agree && reference.sound
    && (workload = "sweep" || reference.text = text)
    && (workload = "sweep" || workload = "translate"
       || reference.output = conv_lines)
  in
  ( ok,
    { facts;
      sim_events = !events - events0;
      shared_loads =
        Scc.Stats.total_shared_dram_loads
          (Scc.Engine.stats conv.Cexec.Interp.engine) } )

(* --- statistics and output ----------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.9g, \"unit\": %S}" name value unit

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* --- the run ------------------------------------------------------------------ *)

let workloads = [ "translate"; "simulate"; "sweep"; "explain" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload translate|simulate|sweep|explain \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some w, Some s, Some secs when List.mem w workloads -> (w, s, secs, !trace)
  | _ -> usage ()

let shuffle seed n =
  let order = Array.init n Fun.id in
  let rng = rng_for seed "order" in
  for i = n - 1 downto 1 do
    let j = Conform.Rng.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  order

let () =
  let workload, seed, seconds, trace = parse_args () in
  let setup () =
    recalibrate ();
    let t0 = now () in
    let items = Array.of_list (items_of workload seed) in
    let refs = Array.map (request workload) items in
    (since t0, items, refs)
  in
  let setups = List.init 3 (fun _ -> setup ()) in
  let setup_s = median (List.map (fun (s, _, _) -> s) setups) in
  let _, items, refs = List.nth setups 2 in
  List.iter (fun l -> l.calls <- 0; l.secs <- 0.) layers;
  events := 0;
  event_secs := 0.;
  let n = Array.length items in
  let order = shuffle seed n in
  let per_item = Array.make n 0 in
  let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
  let words0 = Gc.minor_words () in
  let busy = ref 0. in
  let deadline = Unix.gettimeofday () +. seconds in
  (* whole rounds only, so every input weighs the same in the quantiles *)
  while !attempted = 0 || Unix.gettimeofday () < deadline do
    Array.iter
      (fun i ->
        incr attempted;
        per_item.(i) <- per_item.(i) + 1;
        recalibrate ();
        let t0 = now () in
        match request workload items.(i) with
        | a ->
            let dt = since t0 in
            busy := !busy +. dt;
            latencies := dt :: !latencies;
            if a <> refs.(i) then incr failed
        | exception e ->
            Printf.eprintf "perfbench: %s: %s\n%!" items.(i).name
              (Printexc.to_string e);
            incr failed)
      order
  done;
  let words = Gc.minor_words () -. words0 in
  let attempted = !attempted in
  let checks =
    Array.mapi
      (fun i it ->
        recalibrate ();
        let ok, c = oracle workload it refs.(i) in
        if not ok then begin
          Printf.eprintf "perfbench: %s: the oracle check failed\n%!" it.name;
          failed := !failed + per_item.(i)
        end;
        (ok, c))
      items
  in
  let failed = min !failed attempted in
  let correct = failed = 0 && Array.for_all fst checks in
  let total f =
    float_of_int (Array.fold_left (fun acc (_, c) -> acc + f c) 0 checks)
  in
  let per_call l =
    if l.calls = 0 then 0. else l.secs *. 1000. /. float_of_int l.calls
  in
  let metrics =
    if trace then
      [ ("parse_ms", per_call parse_l, "ms");
        ("analysis_ms", per_call analysis_l, "ms");
        ("passes_ms", per_call passes_l, "ms");
        ("simulate_ms", per_call simulate_l, "ms");
        ("report_ms", per_call report_l, "ms");
        ("facts_computed", total (fun c -> c.facts), "count");
        ("sim_events", total (fun c -> c.sim_events), "count");
        ("shared_dram_loads", total (fun c -> c.shared_loads), "count");
        ("events_per_s", float_of_int !events /. !event_secs, "1/s");
        ("alloc_mwords", words /. 1e6 /. float_of_int attempted, "Mword") ]
    else
      let ms = List.map (fun s -> s *. 1000.) !latencies in
      [ ("latency_p50_ms", median ms, "ms");
        ("latency_p90_ms", percentile ms 0.9, "ms");
        ("requests_per_s", float_of_int (List.length !latencies) /. !busy,
         "1/s");
        ("setup_s", setup_s, "s") ]
  in
  Printf.eprintf
    "perfbench: %s seed=%d: %d inputs, %d requests, host speed %.3f\n%!"
    workload seed n attempted !speed;
  print_endline (result_json ~correct ~attempted ~failed metrics)
