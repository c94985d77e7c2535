open Cfront

(* The paper's section-7 extensions: many-to-one thread mapping,
   pthread_barrier conversion, RCCE send/recv over MPB flags, and the
   counted-barrier/flag engine primitives underneath. *)

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec scan i = i + n <= m && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let check_contains msg needle hay =
  if not (contains needle hay) then
    Alcotest.failf "%s: %S not found in:\n%s" msg needle hay

(* --- many-to-one (section 7.2) ---------------------------------------------- *)

let many_to_one_options ncores =
  { Translate.Pass.default_options with
    Translate.Pass.ncores; many_to_one = true }

let test_many_to_one_emits_task_loop () =
  let src = Exp.Csrc.pi ~nt:16 ~steps:1024 in
  let out, report =
    Translate.Driver.translate_to_string ~options:(many_to_one_options 4) src
  in
  check_contains "task variable declared" "int myTask;" out;
  check_contains "task loop header"
    "for (myTask = myID; myTask < 16; myTask += RCCE_num_ues())" out;
  check_contains "call indexed by task" "work((void*)myTask);" out;
  Alcotest.(check bool) "note mentions many-to-one" true
    (List.exists (contains "many-to-one")
       report.Translate.Driver.notes)

let test_many_to_one_accepts_excess_threads () =
  (* 100 threads would be rejected without the option *)
  let src = Exp.Csrc.pi ~nt:100 ~steps:1000 in
  match
    Translate.Driver.translate_source ~options:(many_to_one_options 48) src
  with
  | _, report ->
      Alcotest.(check (option int)) "100 threads accepted" (Some 100)
        report.Translate.Driver.thread_count
  | exception Translate.Driver.Error e ->
      Alcotest.failf "rejected: %s" (Translate.Driver.error_to_string e)

let test_many_to_one_end_to_end () =
  (* 12 threads onto 3 cores: same result as the original *)
  let src = Exp.Csrc.pi ~nt:12 ~steps:2048 in
  let program = Parser.program ~file:"pi.c" src in
  let original = Cexec.Interp.run_pthread program in
  let translated, _ =
    Translate.Driver.translate_program ~options:(many_to_one_options 3)
      program
  in
  let converted = Cexec.Interp.run_rcce ~ncores:3 translated in
  let expected = String.trim original.Cexec.Interp.output in
  String.split_on_char '\n' (String.trim converted.Cexec.Interp.output)
  |> List.iter (fun line -> Alcotest.(check string) "same pi" expected line);
  Alcotest.(check bool) "3 cores still beat 1" true
    (converted.Cexec.Interp.elapsed_ps < original.Cexec.Interp.elapsed_ps)

let test_many_to_one_uneven_split () =
  (* 10 tasks on 4 cores: 3/3/2/2 — results must still be complete *)
  let src = Exp.Csrc.primes ~nt:10 ~limit:200 in
  let program = Parser.program ~file:"p.c" src in
  let original = Cexec.Interp.run_pthread program in
  let translated, _ =
    Translate.Driver.translate_program ~options:(many_to_one_options 4)
      program
  in
  let converted = Cexec.Interp.run_rcce ~ncores:4 translated in
  let expected = String.trim original.Cexec.Interp.output in
  String.split_on_char '\n' (String.trim converted.Cexec.Interp.output)
  |> List.iter (fun line -> Alcotest.(check string) "same count" expected line)

(* --- pthread_barrier (section 7.1 expansion) --------------------------------- *)

let barrier_src =
  {|#include <stdio.h>
    #include <pthread.h>
    int stage[4];
    pthread_barrier_t bar;
    void *w(void *tid) {
      int id = (int)tid;
      stage[id] = 1;
      pthread_barrier_wait(&bar);
      if (id == 0) {
        int total = 0;
        int i;
        for (i = 0; i < 4; i++) { total = total + stage[i]; }
        printf("after barrier: %d\n", total);
      }
      pthread_exit(NULL);
    }
    int main() {
      pthread_barrier_init(&bar, NULL, 4);
      pthread_t t[4];
      int i;
      for (i = 0; i < 4; i++) { pthread_create(&t[i], NULL, w, (void *)i); }
      for (i = 0; i < 4; i++) { pthread_join(t[i], NULL); }
      return 0;
    }|}

let test_pthread_barrier_translation () =
  let out, _ = Translate.Driver.translate_to_string barrier_src in
  check_contains "wait becomes RCCE barrier" "RCCE_barrier(&RCCE_COMM_WORLD)"
    out;
  if contains "pthread_barrier" out then
    Alcotest.failf "pthread_barrier survived:\n%s" out

let test_pthread_barrier_interp () =
  let r = Cexec.Interp.run_pthread (Parser.program barrier_src) in
  Alcotest.(check string) "all four stages visible after the barrier"
    "after barrier: 4\n" r.Cexec.Interp.output

let test_pthread_barrier_end_to_end () =
  let program = Parser.program barrier_src in
  let original = Cexec.Interp.run_pthread program in
  let translated, _ = Translate.Driver.translate_program program in
  let converted = Cexec.Interp.run_rcce ~ncores:4 translated in
  Alcotest.(check string) "same output" original.Cexec.Interp.output
    converted.Cexec.Interp.output

(* --- counted barriers and flags in the engine -------------------------------- *)

let test_engine_counted_barrier_subgroup () =
  let eng = Scc.Engine.create () in
  let released = ref 0 in
  (* contexts 0 and 1 meet at a 2-party barrier; context 2 never joins *)
  for core = 0 to 2 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           if api.Scc.Engine.self < 2 then begin
             api.Scc.Engine.barrier_n ~id:7 ~count:2;
             incr released
           end
           else api.Scc.Engine.compute 1_000))
  done;
  Scc.Engine.run eng;
  Alcotest.(check int) "both members released" 2 !released

let test_engine_counted_barrier_reusable () =
  let eng = Scc.Engine.create () in
  let rounds = Array.make 2 0 in
  for core = 0 to 1 do
    ignore
      (Scc.Engine.spawn eng ~core (fun api ->
           for _ = 1 to 5 do
             api.Scc.Engine.barrier_n ~id:3 ~count:2;
             rounds.(api.Scc.Engine.self) <-
               rounds.(api.Scc.Engine.self) + 1
           done))
  done;
  Scc.Engine.run eng;
  Alcotest.(check int) "five rounds each" 5 rounds.(0);
  Alcotest.(check int) "five rounds each" 5 rounds.(1)

let test_engine_flags () =
  let eng = Scc.Engine.create () in
  let observed = ref (-1) in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         api.Scc.Engine.compute 10_000;
         api.Scc.Engine.flag_set ~id:1 true));
  ignore
    (Scc.Engine.spawn eng ~core:1 (fun api ->
         api.Scc.Engine.flag_wait ~id:1;
         observed := api.Scc.Engine.now_ps ()));
  Scc.Engine.run eng;
  Alcotest.(check bool) "waiter woke after the set" true
    (!observed >= Scc.Config.core_cycles_ps Scc.Config.default 10_000)

let test_engine_flag_already_set () =
  let eng = Scc.Engine.create () in
  let done_ = ref false in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         api.Scc.Engine.flag_set ~id:2 true;
         api.Scc.Engine.flag_wait ~id:2;
         done_ := true));
  Scc.Engine.run eng;
  Alcotest.(check bool) "wait on a set flag returns" true !done_

(* --- RCCE send/recv ------------------------------------------------------------ *)

let test_rcce_send_recv_pair () =
  let received_at = ref 0 and sent_at = ref 0 in
  let _eng =
    Rcce.run ~ncores:2 (fun t ->
        if Rcce.ue t = 0 then begin
          Rcce.send t ~dest_ue:1 ~bytes:512;
          sent_at := (Rcce.api t).Scc.Engine.now_ps ()
        end
        else begin
          Rcce.recv t ~src_ue:0 ~bytes:512;
          received_at := (Rcce.api t).Scc.Engine.now_ps ()
        end)
  in
  Alcotest.(check bool) "receive completes after data movement" true
    (!received_at > 0);
  Alcotest.(check bool) "sender finished too" true (!sent_at > 0)

let test_rcce_ring () =
  (* a token passes around an 8-UE ring and returns home *)
  let n = 8 in
  let hops = ref 0 in
  let _eng =
    Rcce.run ~ncores:n (fun t ->
        let me = Rcce.ue t in
        let next = (me + 1) mod n and prev = (me + n - 1) mod n in
        if me = 0 then begin
          Rcce.send t ~dest_ue:next ~bytes:64;
          Rcce.recv t ~src_ue:prev ~bytes:64;
          hops := n
        end
        else begin
          Rcce.recv t ~src_ue:prev ~bytes:64;
          Rcce.send t ~dest_ue:next ~bytes:64
        end)
  in
  Alcotest.(check int) "token went all the way round" 8 !hops

let test_rcce_send_to_self_rejected () =
  match
    Rcce.run ~ncores:2 (fun t ->
        if Rcce.ue t = 0 then Rcce.send t ~dest_ue:0 ~bytes:8)
  with
  | _ -> Alcotest.fail "send to self accepted"
  | exception Invalid_argument _ -> ()

let test_rcce_chunked_message () =
  (* larger than the 1 KB comm buffer: must still complete, in chunks *)
  let small = ref 0 and large = ref 0 in
  let time bytes =
    let finish = ref 0 in
    let _eng =
      Rcce.run ~ncores:2 (fun t ->
          if Rcce.ue t = 0 then Rcce.send t ~dest_ue:1 ~bytes
          else begin
            Rcce.recv t ~src_ue:0 ~bytes;
            finish := (Rcce.api t).Scc.Engine.now_ps ()
          end)
    in
    !finish
  in
  small := time 256;
  large := time 8192;
  Alcotest.(check bool) "bigger message takes longer" true (!large > !small)

(* --- RCCE flags in the interpreter -------------------------------------------- *)

let test_interp_rcce_flags_producer_consumer () =
  (* UE 0 produces a value into shared memory and raises UE 1's flag;
     UE 1 waits on its own flag copy before consuming *)
  let src =
    {|#include <stdio.h>
      int *cell;
      RCCE_FLAG ready;
      int RCCE_APP(int argc, char **argv) {
        RCCE_init(&argc, &argv);
        RCCE_flag_alloc(&ready);
        cell = (int*)RCCE_shmalloc(sizeof(int) * 1);
        int me;
        me = RCCE_ue();
        if (me == 0) {
          *cell = 42;
          RCCE_flag_write(&ready, RCCE_FLAG_SET, 1);
        }
        if (me == 1) {
          RCCE_wait_until(ready, RCCE_FLAG_SET);
          printf("consumed %d
", *cell);
        }
        RCCE_finalize();
        return 0;
      }|}
  in
  let r =
    Cexec.Interp.run_rcce ~ncores:2 (Parser.program ~file:"pc.c" src)
  in
  Alcotest.(check string) "value visible after the flag" "consumed 42
"
    r.Cexec.Interp.output

let test_interp_rcce_wait_unset_rejected () =
  let src =
    {|RCCE_FLAG f;
      int RCCE_APP(int argc, char **argv) {
        RCCE_init(&argc, &argv);
        RCCE_flag_alloc(&f);
        RCCE_wait_until(f, RCCE_FLAG_UNSET);
        return 0;
      }|}
  in
  match Cexec.Interp.run_rcce ~ncores:1 (Parser.program src) with
  | _ -> Alcotest.fail "waiting for UNSET should be rejected"
  | exception Cexec.Interp.Runtime_error _ -> ()

(* --- dynamic DVFS (section 5.1 power API) -------------------------------------- *)

let test_set_frequency_slows_compute () =
  let eng = Scc.Engine.create () in
  let fast = ref 0 and slow = ref 0 in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         let t0 = api.Scc.Engine.now_ps () in
         api.Scc.Engine.compute 100_000;
         let t1 = api.Scc.Engine.now_ps () in
         api.Scc.Engine.set_frequency ~core:0 ~mhz:400;
         let t2 = api.Scc.Engine.now_ps () in
         api.Scc.Engine.compute 100_000;
         let t3 = api.Scc.Engine.now_ps () in
         fast := t1 - t0;
         slow := t3 - t2));
  Scc.Engine.run eng;
  Alcotest.(check int) "half the frequency, twice the time" (2 * !fast)
    !slow

let test_set_frequency_is_tile_granular () =
  let eng = Scc.Engine.create () in
  let sibling = ref 0 and other_tile = ref 0 in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         api.Scc.Engine.set_frequency ~core:0 ~mhz:200;
         api.Scc.Engine.barrier ()));
  (* core 1 shares tile 0; core 2 is on tile 1 *)
  ignore
    (Scc.Engine.spawn eng ~core:1 (fun api ->
         api.Scc.Engine.barrier ();
         let t0 = api.Scc.Engine.now_ps () in
         api.Scc.Engine.compute 1_000;
         sibling := api.Scc.Engine.now_ps () - t0));
  ignore
    (Scc.Engine.spawn eng ~core:2 (fun api ->
         api.Scc.Engine.barrier ();
         let t0 = api.Scc.Engine.now_ps () in
         api.Scc.Engine.compute 1_000;
         other_tile := api.Scc.Engine.now_ps () - t0));
  Scc.Engine.run eng;
  Alcotest.(check int) "tile sibling slowed to 200 MHz"
    (1_000 * (1_000_000 / 200)) !sibling;
  Alcotest.(check int) "other tile still at 800 MHz"
    (1_000 * (1_000_000 / 800)) !other_tile

let test_set_frequency_bounds () =
  let eng = Scc.Engine.create () in
  ignore
    (Scc.Engine.spawn eng ~core:0 (fun api ->
         api.Scc.Engine.set_frequency ~core:0 ~mhz:50));
  match Scc.Engine.run eng with
  | _ -> Alcotest.fail "50 MHz should be rejected"
  | exception Invalid_argument _ -> ()

let test_interp_program_slows_itself () =
  let src =
    {|int RCCE_APP(int argc, char **argv) {
        RCCE_init(&argc, &argv);
        int i;
        int acc = 0;
        RCCE_set_frequency_divider(8);
        for (i = 0; i < 1000; i++) { acc = acc + i; }
        RCCE_finalize();
        return acc;
      }|}
  in
  let slow = Cexec.Interp.run_rcce ~ncores:1 (Parser.program src) in
  let fast_src =
    {|int RCCE_APP(int argc, char **argv) {
        RCCE_init(&argc, &argv);
        int i;
        int acc = 0;
        for (i = 0; i < 1000; i++) { acc = acc + i; }
        RCCE_finalize();
        return acc;
      }|}
  in
  let fast = Cexec.Interp.run_rcce ~ncores:1 (Parser.program fast_src) in
  Alcotest.(check bool) "the divider slowed the program" true
    (slow.Cexec.Interp.elapsed_ps > fast.Cexec.Interp.elapsed_ps)

(* --- the extensions tour ------------------------------------------------------- *)

(* The tour's whole output -- its ring line times RCCE send/recv -- is
   pinned by a golden. *)
let test_tour_golden () =
  (* the test process runs in _build/default/test *)
  let exe, golden =
    if Sys.file_exists "../examples/extensions_tour.exe" then
      ("../examples/extensions_tour.exe", "../test/golden/extensions_tour.txt")
    else
      ( "_build/default/examples/extensions_tour.exe",
        "test/golden/extensions_tour.txt" )
  in
  if not (Sys.file_exists exe) then
    Printf.eprintf "skipping tour golden: %s not built\n" exe
  else begin
    let out = Filename.temp_file "extensions_tour" ".txt" in
    let code = Sys.command (exe ^ " > " ^ Filename.quote out) in
    let read path =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    let printed = read out in
    Sys.remove out;
    Alcotest.(check int) "exit status" 0 code;
    Alcotest.(check string) "tour output" (read golden) printed
  end

let suite =
  [
    Alcotest.test_case "many-to-one task loop" `Quick
      test_many_to_one_emits_task_loop;
    Alcotest.test_case "many-to-one accepts 100 threads" `Quick
      test_many_to_one_accepts_excess_threads;
    Alcotest.test_case "many-to-one end to end" `Quick
      test_many_to_one_end_to_end;
    Alcotest.test_case "many-to-one uneven split" `Quick
      test_many_to_one_uneven_split;
    Alcotest.test_case "pthread_barrier translation" `Quick
      test_pthread_barrier_translation;
    Alcotest.test_case "pthread_barrier interp" `Quick
      test_pthread_barrier_interp;
    Alcotest.test_case "pthread_barrier end to end" `Quick
      test_pthread_barrier_end_to_end;
    Alcotest.test_case "counted barrier subgroup" `Quick
      test_engine_counted_barrier_subgroup;
    Alcotest.test_case "counted barrier reusable" `Quick
      test_engine_counted_barrier_reusable;
    Alcotest.test_case "flags wake waiters" `Quick test_engine_flags;
    Alcotest.test_case "flag already set" `Quick test_engine_flag_already_set;
    Alcotest.test_case "send/recv pair" `Quick test_rcce_send_recv_pair;
    Alcotest.test_case "ring communication" `Quick test_rcce_ring;
    Alcotest.test_case "send to self rejected" `Quick
      test_rcce_send_to_self_rejected;
    Alcotest.test_case "chunked message" `Quick test_rcce_chunked_message;
    Alcotest.test_case "interp flags producer/consumer" `Quick
      test_interp_rcce_flags_producer_consumer;
    Alcotest.test_case "interp wait-unset rejected" `Quick
      test_interp_rcce_wait_unset_rejected;
    Alcotest.test_case "DVFS slows compute" `Quick
      test_set_frequency_slows_compute;
    Alcotest.test_case "DVFS tile granularity" `Quick
      test_set_frequency_is_tile_granular;
    Alcotest.test_case "DVFS bounds" `Quick test_set_frequency_bounds;
    Alcotest.test_case "interp self-slowing program" `Quick
      test_interp_program_slows_itself;
    Alcotest.test_case "extensions tour golden" `Quick test_tour_golden;
  ]
