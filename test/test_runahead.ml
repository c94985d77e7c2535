(* Core-local run-ahead is exact: [Interp.run_rcce], where a rank alone
   on its core processes its core-local operations out of global order,
   gives the same simulated results as a strict run (a recorder attached
   keeps the engine strict), and the cases where one context's action
   changes another's core-local operations are caught and replayed. *)

open Cfront

(* --- the differential check ----------------------------------------------- *)

(* Everything a run reports: output, time, operations, per-context
   statistics and the memory controllers' load. *)
type print = {
  output : string;
  elapsed_ps : int;
  events : int;
  ctxs : Scc.Stats.ctx_stats array;
  mc_busy_ps : int array;
  mc_requests : int array;
}

let print_of (r : Cexec.Interp.result) =
  let eng = r.Cexec.Interp.engine in
  let st = Scc.Engine.stats eng in
  { output = r.Cexec.Interp.output;
    elapsed_ps = r.Cexec.Interp.elapsed_ps;
    events = Scc.Engine.events eng;
    ctxs = st.Scc.Stats.ctxs;
    mc_busy_ps = st.Scc.Stats.mc_busy_ps;
    mc_requests = st.Scc.Stats.mc_requests }

let outcome run =
  match run () with
  | r -> Ok (print_of r)
  | exception e -> Error (Printexc.to_string e)

let check_same name ~default ~strict =
  match outcome default, outcome strict with
  | Ok a, Ok b ->
      let field what same =
        if not same then Alcotest.failf "%s: %s differs from strict" name what
      in
      field "output" (a.output = b.output);
      field "elapsed_ps" (a.elapsed_ps = b.elapsed_ps);
      field "events" (a.events = b.events);
      field "ctx stats" (a.ctxs = b.ctxs);
      field "mc_busy_ps" (a.mc_busy_ps = b.mc_busy_ps);
      field "mc_requests" (a.mc_requests = b.mc_requests)
  | Error a, Error b -> Alcotest.(check string) (name ^ ": error") b a
  | Ok _, Error e -> Alcotest.failf "%s: only the strict run failed: %s" name e
  | Error e, Ok _ -> Alcotest.failf "%s: only the default run failed: %s" name e

let translate ~options program =
  let session = Session.create ~file:"t.c" ~options program in
  fst (Translate.Driver.translate_session session)

(* The translation at [ncores] ranks and the Pthread original, each
   run in a default and in a traced (strict) engine. *)
let check_program name ~options ~ncores program =
  let translated = translate ~options program in
  check_same (name ^ " rcce")
    ~default:(fun () -> Cexec.Interp.run_rcce ~ncores translated)
    ~strict:(fun () ->
      Cexec.Interp.run_rcce ~trace:(Scc.Trace.create ()) ~ncores translated);
  check_same (name ^ " pthread")
    ~default:(fun () -> Cexec.Interp.run_pthread program)
    ~strict:(fun () ->
      Cexec.Interp.run_pthread ~trace:(Scc.Trace.create ()) program)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let c_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_sources_match_strict () =
  let options =
    { Translate.Pass.default_options with Translate.Pass.ncores = 8 }
  in
  let files =
    List.map (fun f -> (f, options)) (c_files "../examples/c")
    @ List.map
        (fun f -> (f, { options with Translate.Pass.many_to_one = true }))
        (c_files "conformance")
  in
  Alcotest.(check bool) "sources present" true (List.length files >= 15);
  List.iter
    (fun (path, options) ->
      let program = Parser.program ~file:path (read_file path) in
      check_program path ~options ~ncores:8 program)
    files

let test_generated_match_strict () =
  for seed = 1 to 100 do
    let spec, program = Conform.Gen.generate ~seed in
    check_program (Printf.sprintf "gen seed %d" seed)
      ~options:(Conform.Oracle.config_of_spec spec).Conform.Oracle.options
      ~ncores:spec.Conform.Gen.run_cores program
  done

let kernels ~nt =
  [ ("pi", Exp.Csrc.pi ~nt ~steps:256);
    ("primes", Exp.Csrc.primes ~nt ~limit:48);
    ("sum35", Exp.Csrc.sum35 ~nt ~bound:256);
    ("dot", Exp.Csrc.dot ~nt ~n:256);
    ("dot_reps", Exp.Csrc.dot_reps ~reps:4 ~nt ~n:64);
    ("hot_loop", Exp.Csrc.hot_loop ~nt ~steps:64);
    ("stream", Exp.Csrc.stream ~nt ~n:128);
    ("lu", Exp.Csrc.lu ~nt ~n:8);
    ("mutex_counter", Exp.Csrc.mutex_counter ~nt ~iters:16) ]

let test_kernels_match_strict () =
  List.iter
    (fun nt ->
      List.iter
        (fun (name, src) ->
          let program = Parser.program ~file:(name ^ ".c") src in
          List.iter
            (fun optimize ->
              check_program
                (Printf.sprintf "%s nt=%d -O=%b" name nt optimize)
                ~options:
                  { Translate.Pass.default_options with
                    Translate.Pass.ncores = nt; optimize }
                ~ncores:nt program)
            [ false; true ])
        (kernels ~nt))
    [ 2; 8; 32 ]

let test_synth_match_strict () =
  let grid = Array.of_list (Synth.Spec.grid Synth.Spec.Quick) in
  for i = 0 to 7 do
    let spec = grid.((i * 47) mod Array.length grid) in
    check_program
      (Printf.sprintf "synth %s" (Synth.Spec.describe spec))
      ~options:(Synth.Emit.oracle_config spec).Conform.Oracle.options
      ~ncores:spec.Synth.Spec.threads
      (Synth.Emit.program_of_spec spec)
  done

(* --- programs that need the guards ---------------------------------------- *)

let rcce_app body =
  Printf.sprintf
    "int RCCE_APP(int argc, char **argv) {\n\
    \  RCCE_init(&argc, &argv);\n\
    \  int me = RCCE_ue();\n\
     %s\n\
    \  RCCE_finalize();\n\
    \  return 0;\n\
     }\n"
    body

(* Rank 0 publishes a pointer to its private [local] and updates it;
   ranks 1-3 read it cross-core, interleaved with the updates. *)
let pointer_race =
  rcce_app
    "  int **slot = (int **) RCCE_shmalloc(sizeof(int *));\n\
    \  int local = 0;\n\
    \  int i;\n\
    \  if (me == 0) *slot = &local;\n\
    \  RCCE_barrier(&RCCE_COMM_WORLD);\n\
    \  if (me == 0) {\n\
    \    for (i = 0; i < 200; i++) local = local + 1;\n\
    \  } else {\n\
    \    int *p = *slot;\n\
    \    int sum = 0;\n\
    \    for (i = 0; i < 20; i++) sum = sum + *p;\n\
    \    printf(\"%d\\n\", sum);\n\
    \  }"

(* Rank 0 slows its tile, which includes rank 1's core, mid-loop. *)
let tile_dvfs =
  rcce_app
    "  int i;\n\
    \  int x = 0;\n\
    \  if (me == 0) {\n\
    \    for (i = 0; i < 50; i++) x = x + i;\n\
    \    RCCE_set_frequency_divider(8);\n\
    \  } else {\n\
    \    for (i = 0; i < 2000; i++) x = x + i;\n\
    \  }"

(* Both ranks fail; rank 1's error comes first in simulated time. *)
let error_order =
  rcce_app
    "  int *shared = (int *) RCCE_shmalloc(sizeof(int));\n\
    \  int i;\n\
    \  int x = 0;\n\
    \  int z = 0;\n\
    \  if (me == 0) {\n\
    \    for (i = 0; i < 3000; i++) x = x + i;\n\
    \    x = x / z;\n\
    \  } else {\n\
    \    for (i = 0; i < 20; i++) *shared = *shared + 1;\n\
    \    x = x % z;\n\
    \  }"

(* Rank 0 spins on a private flag only rank 1 sets, through a pointer. *)
let private_spin =
  rcce_app
    "  int **slot = (int **) RCCE_shmalloc(sizeof(int *));\n\
    \  int flag = 0;\n\
    \  int spins = 0;\n\
    \  if (me == 0) *slot = &flag;\n\
    \  RCCE_barrier(&RCCE_COMM_WORLD);\n\
    \  if (me == 0) {\n\
    \    while (flag == 0) spins = spins + 1;\n\
    \    printf(\"released\\n\");\n\
    \  } else {\n\
    \    int *p = *slot;\n\
    \    *p = 1;\n\
    \  }"

(* Rank 0 starts a thread, so core 0 is time-sliced; while the thread
   holds its slice it runs ahead of rank 1 in global order too, and
   reads rank 1's private [local] through a pointer. *)
let sliced_reader =
  "#include <pthread.h>\n\
   void *reader(void *arg) {\n\
  \  int **slot = (int **) arg;\n\
  \  int *p = *slot;\n\
  \  int sum = 0;\n\
  \  int i;\n\
  \  int d = 0;\n\
  \  for (i = 0; i < 1000; i++) d = d + i;\n\
  \  for (i = 0; i < 20; i++) sum = sum + *p;\n\
  \  printf(\"%d\\n\", sum);\n\
  \  return NULL;\n\
   }\n"
  ^ rcce_app
      "  int **slot = (int **) RCCE_shmalloc(sizeof(int *));\n\
      \  int *sh = (int *) RCCE_shmalloc(sizeof(int));\n\
      \  int local = 0;\n\
      \  int i;\n\
      \  int x = 0;\n\
      \  if (me == 1) *slot = &local;\n\
      \  RCCE_barrier(&RCCE_COMM_WORLD);\n\
      \  if (me == 1) {\n\
      \    for (i = 0; i < 2000; i++) {\n\
      \      local = local + 1;\n\
      \      if (i % 20 == 0) x = x + *sh;\n\
      \    }\n\
      \  } else {\n\
      \    pthread_t t;\n\
      \    pthread_create(&t, NULL, reader, (void *) slot);\n\
      \    for (i = 0; i < 50; i++) x = x + i;\n\
      \    pthread_join(t, NULL);\n\
      \  }"

(* Rank 0 sweeps a private array, which evicts [local] from its L1,
   then prints [local]; after a private delay rank 1 stores to it through
   a pointer.  Rank 0's load of [local] runs ahead, and the value is read
   at the load's end: for delays near 5300 iterations the store lands
   inside that L2 hit. *)
let print_local ~delay =
  rcce_app
    (Printf.sprintf
       "  int **slot = (int **) RCCE_shmalloc(sizeof(int *));\n\
       \  int local = 0;\n\
       \  int big[4096];\n\
       \  int i;\n\
       \  int x = 0;\n\
       \  if (me == 0) *slot = &local;\n\
       \  RCCE_barrier(&RCCE_COMM_WORLD);\n\
       \  if (me == 0) {\n\
       \    for (i = 0; i < 4096; i = i + 8) x = x + big[i];\n\
       \    printf(\"%%d\\n\", local);\n\
       \  } else {\n\
       \    int *p = *slot;\n\
       \    for (i = 0; i < %d; i++) x = x + i;\n\
       \    *p = 1;\n\
       \  }"
       delay)

(* Each rank makes nine printf calls with no memory operation between
   them, so the ninth call's charge flushes a compute burst; its output
   is appended at the burst's end. *)
let printf_burst =
  let calls tag =
    String.concat ""
      (List.init 9 (fun i -> Printf.sprintf "    printf(\"%s%d\\n\");\n" tag (i + 1)))
  in
  rcce_app
    ("  if (me == 0) {\n" ^ calls "A" ^ "  } else {\n" ^ calls "B" ^ "  }")

let run_both ~ncores src =
  let program = Parser.program ~file:"guard.c" src in
  check_same "guarded program"
    ~default:(fun () -> Cexec.Interp.run_rcce ~ncores program)
    ~strict:(fun () ->
      Cexec.Interp.run_rcce ~trace:(Scc.Trace.create ()) ~ncores program);
  Cexec.Interp.run_rcce ~ncores program

let test_pointer_race () =
  let r = run_both ~ncores:4 pointer_race in
  Alcotest.(check string) "interleaved sums" "1092\n1172\n1228\n"
    r.Cexec.Interp.output

let test_tile_dvfs () =
  let r = run_both ~ncores:2 tile_dvfs in
  Alcotest.(check string) "slowed neighbour" "0.109"
    (Printf.sprintf "%.3f" (float_of_int r.Cexec.Interp.elapsed_ps /. 1e9))

let test_error_order () =
  (match run_both ~ncores:2 error_order with
  | _ -> Alcotest.fail "both ranks divide by zero"
  | exception Cexec.Value.Type_error msg ->
      Alcotest.(check string) "earliest error" "modulo by zero" msg);
  Test_interp.check_run_fails ~args:"--cores 2"
    ~diagnostic:"hsmcc: runtime error: modulo by zero" error_order

let test_sliced_reader () =
  let r = run_both ~ncores:2 sliced_reader in
  Alcotest.(check string) "reads at the slice's place in global order"
    "4120\n" r.Cexec.Interp.output

let test_print_local () =
  let seen =
    List.init 21 (fun i ->
        (run_both ~ncores:2 (print_local ~delay:(5290 + i))).Cexec.Interp.output)
  in
  (* the delays straddle the store's arrival: the window lies inside *)
  Alcotest.(check (list string)) "store seen, then not" [ "0\n"; "1\n" ]
    (List.sort_uniq compare seen)

let test_printf_burst () =
  let r = run_both ~ncores:2 printf_burst in
  Alcotest.(check string) "ninth lines at the bursts' end"
    "A1\nA2\nA3\nA4\nA5\nA6\nA7\nA8\nB1\nB2\nB3\nB4\nB5\nB6\nB7\nB8\nA9\nB9\n"
    r.Cexec.Interp.output

let test_private_spin () =
  let r = run_both ~ncores:2 private_spin in
  Alcotest.(check string) "spin released" "released\n" r.Cexec.Interp.output

(* --- engine-level conflicts ------------------------------------------------- *)

let expect_conflict ~strict eng =
  match Scc.Engine.run eng with
  | () -> if not strict then Alcotest.fail "conflict not detected"
  | exception Scc.Engine.Order_conflict msg ->
      if strict then Alcotest.failf "strict engine raised: %s" msg

(* Core 1 runs far ahead while core 0, its tile neighbour, still has to
   change the tile's frequency at an earlier time. *)
let test_dvfs_conflict () =
  List.iter
    (fun strict ->
      let eng = Scc.Engine.create ~strict () in
      ignore
        (Scc.Engine.spawn eng ~core:0 (fun api ->
             api.Scc.Engine.compute 1_000;
             api.Scc.Engine.set_frequency ~core:0 ~mhz:200));
      ignore
        (Scc.Engine.spawn eng ~core:1 (fun api ->
             for _ = 1 to 100 do
               api.Scc.Engine.compute 1_000
             done));
      expect_conflict ~strict eng)
    [ false; true ]

(* Core 0's owner runs ahead through its private line; core 1 then
   reads that line at an earlier time. *)
let test_cross_core_conflict () =
  List.iter
    (fun strict ->
      let eng = Scc.Engine.create ~strict () in
      let line =
        Scc.Memmap.alloc (Scc.Engine.memmap eng) (Scc.Memmap.Private 0)
          ~bytes:32
      in
      ignore
        (Scc.Engine.spawn eng ~core:0 (fun api ->
             for _ = 1 to 100 do
               api.Scc.Engine.compute 100;
               api.Scc.Engine.store line ~bytes:4
             done));
      ignore
        (Scc.Engine.spawn eng ~core:1 (fun api ->
             api.Scc.Engine.compute 10;
             api.Scc.Engine.load line ~bytes:4));
      expect_conflict ~strict eng)
    [ false; true ]

let suite =
  [
    Alcotest.test_case "examples and corpus match strict" `Quick
      test_sources_match_strict;
    Alcotest.test_case "generated programs match strict" `Quick
      test_generated_match_strict;
    Alcotest.test_case "kernels at 2/8/32 ranks match strict" `Quick
      test_kernels_match_strict;
    Alcotest.test_case "synth programs match strict" `Quick
      test_synth_match_strict;
    Alcotest.test_case "cross-core pointer race" `Quick test_pointer_race;
    Alcotest.test_case "tile DVFS mid-run" `Quick test_tile_dvfs;
    Alcotest.test_case "earliest error reported" `Quick test_error_order;
    Alcotest.test_case "cross-core read from a time-sliced thread" `Quick
      test_sliced_reader;
    Alcotest.test_case "spin on a cross-core-written flag" `Quick
      test_private_spin;
    Alcotest.test_case "print a local stored to cross-core" `Quick
      test_print_local;
    Alcotest.test_case "printf output after a flushed burst" `Quick
      test_printf_burst;
    Alcotest.test_case "tile-neighbour DVFS conflict" `Quick
      test_dvfs_conflict;
    Alcotest.test_case "cross-core private access conflict" `Quick
      test_cross_core_conflict;
  ]
