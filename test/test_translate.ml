open Cfront

(* Stage 5: the full translation of the paper's example, each pass's
   behaviour in isolation, error paths, and the no-pthread-survivor
   property. *)

let translate ?options src =
  Translate.Driver.translate_source ?options ~file:"test.c" src

let translated_text ?options src = fst (Translate.Driver.translate_to_string ?options ~file:"test.c" src)

let contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec scan i =
    i + n <= m && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let check_contains msg needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: expected to find %S in:\n%s" msg needle haystack

let check_absent msg needle haystack =
  if contains ~needle haystack then
    Alcotest.failf "%s: expected NOT to find %S in:\n%s" msg needle haystack

(* --- the running example ---------------------------------------------------- *)

let test_example_4_2_shape () =
  let out = translated_text Exp.Example41.source in
  (* global declarations transformed *)
  check_contains "sum becomes a pointer" "int *sum;" out;
  check_contains "RCCE header" "#include \"RCCE.h\"" out;
  check_absent "pthread header gone" "pthread.h" out;
  (* main body, in the paper's order *)
  check_contains "renamed main" "int RCCE_APP(int argc, char **argv)" out;
  check_contains "init first" "RCCE_init(&argc, &argv);" out;
  check_contains "ptr allocation" "ptr = (int*)RCCE_shmalloc(sizeof(int) * 1);" out;
  check_contains "sum allocation" "sum = (int*)RCCE_shmalloc(sizeof(int) * 3);" out;
  check_contains "core id variable" "myID = RCCE_ue();" out;
  check_contains "direct call with core id" "tf((void*)myID);" out;
  check_contains "barrier" "RCCE_barrier(&RCCE_COMM_WORLD);" out;
  check_contains "per-core print" "sum[myID]" out;
  check_contains "finalize before return" "RCCE_finalize();" out;
  (* dead thread-management code removed *)
  check_absent "threads array gone" "pthread_t" out;
  check_absent "rc gone" "int rc" out;
  check_absent "create loop gone" "pthread_create" out;
  check_absent "exit call gone" "pthread_exit" out

let test_statement_order_in_main () =
  let out = translated_text Exp.Example41.source in
  let pos needle =
    let n = String.length needle in
    let rec scan i =
      if i + n > String.length out then
        Alcotest.failf "missing %S" needle
      else if String.sub out i n = needle then i
      else scan (i + 1)
    in
    scan 0
  in
  let order =
    [ "RCCE_init"; "RCCE_shmalloc"; "myID = RCCE_ue()"; "tf((void*)myID)";
      "RCCE_barrier"; "printf"; "RCCE_finalize"; "return 0" ]
  in
  let positions = List.map pos order in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "main statements in the paper's order" true
    (ascending positions)

let test_translation_reparses () =
  let out = translated_text Exp.Example41.source in
  match Parser.program out with
  | p ->
      Alcotest.(check bool) "non-empty" true (List.length p.Ast.p_globals > 0)
  | exception Srcloc.Error (loc, msg) ->
      Alcotest.failf "translated output does not reparse: %s: %s"
        (Srcloc.to_string loc) msg

(* --- individual behaviours --------------------------------------------------- *)

let test_standalone_create_pinned () =
  let out =
    translated_text
      {|#include <pthread.h>
        int flag;
        void *taskA(void *a) { flag = 1; pthread_exit(NULL); }
        void *taskB(void *a) { flag = 2; pthread_exit(NULL); }
        int main() {
          pthread_t t1;
          pthread_t t2;
          pthread_create(&t1, NULL, taskA, NULL);
          pthread_create(&t2, NULL, taskB, NULL);
          pthread_join(t1, NULL);
          pthread_join(t2, NULL);
          return 0;
        }|}
  in
  check_contains "taskA pinned to core 0" "if (myID == 0)" out;
  check_contains "taskB pinned to core 1" "if (myID == 1)" out;
  check_contains "joins become barriers" "RCCE_barrier" out;
  (* consecutive barriers collapse *)
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length out then acc
      else if String.sub out i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "two joins collapse to one barrier" 1
    (count "RCCE_barrier(")

let test_mutex_conversion () =
  let out =
    translated_text
      {|#include <pthread.h>
        int counter;
        pthread_mutex_t m;
        void *w(void *a) {
          pthread_mutex_lock(&m);
          counter = counter + 1;
          pthread_mutex_unlock(&m);
          pthread_exit(NULL);
        }
        int main() {
          pthread_mutex_init(&m, NULL);
          pthread_t t[4];
          int i;
          for (i = 0; i < 4; i++) { pthread_create(&t[i], NULL, w, (void *)i); }
          for (i = 0; i < 4; i++) { pthread_join(t[i], NULL); }
          return counter;
        }|}
  in
  check_contains "lock converted" "RCCE_acquire_lock(0)" out;
  check_contains "unlock converted" "RCCE_release_lock(0)" out;
  check_absent "mutex declaration gone" "pthread_mutex_t" out;
  check_absent "mutex init gone" "pthread_mutex_init" out;
  (* the shared scalar becomes a dereferenced pointer *)
  check_contains "counter allocated" "counter = (int*)RCCE_shmalloc" out;
  check_contains "counter uses dereferenced" "*counter = *counter + 1" out

let test_two_mutexes_two_registers () =
  let out =
    translated_text
      {|#include <pthread.h>
        pthread_mutex_t a;
        pthread_mutex_t b;
        int main() {
          pthread_mutex_lock(&a);
          pthread_mutex_lock(&b);
          pthread_mutex_unlock(&b);
          pthread_mutex_unlock(&a);
          return 0;
        }|}
  in
  check_contains "first mutex register 0" "RCCE_acquire_lock(0)" out;
  check_contains "second mutex register 1" "RCCE_acquire_lock(1)" out

let test_pthread_self_replaced () =
  let out =
    translated_text
      {|#include <pthread.h>
        int ids[4];
        void *w(void *a) { ids[(int)a] = (int)pthread_self(); pthread_exit(NULL); }
        int main() {
          pthread_t t[4];
          int i;
          for (i = 0; i < 4; i++) { pthread_create(&t[i], NULL, w, (void *)i); }
          for (i = 0; i < 4; i++) { pthread_join(t[i], NULL); }
          return 0;
        }|}
  in
  check_contains "self replaced" "RCCE_ue()" out;
  check_absent "self gone" "pthread_self" out

let test_prior_malloc_removed () =
  let out =
    translated_text
      {|#include <pthread.h>
        #include <stdlib.h>
        int *buf;
        void *w(void *a) { buf[(int)a] = 1; pthread_exit(NULL); }
        int main() {
          buf = (int*)malloc(sizeof(int) * 8);
          pthread_t t[8];
          int i;
          for (i = 0; i < 8; i++) { pthread_create(&t[i], NULL, w, (void *)i); }
          for (i = 0; i < 8; i++) { pthread_join(t[i], NULL); }
          return 0;
        }|}
  in
  check_contains "shmalloc inserted" "RCCE_shmalloc" out;
  check_absent "prior malloc removed" "malloc(sizeof(int) * 8)" out

let test_nonzero_initializer_reemitted () =
  let out =
    translated_text
      {|#include <pthread.h>
        int table[3] = {10, 20, 30};
        void *w(void *a) { table[(int)a] += 1; pthread_exit(NULL); }
        int main() {
          pthread_t t[3];
          int i;
          for (i = 0; i < 3; i++) { pthread_create(&t[i], NULL, w, (void *)i); }
          for (i = 0; i < 3; i++) { pthread_join(t[i], NULL); }
          return 0;
        }|}
  in
  check_contains "core 0 re-initializes" "if (myID == 0)" out;
  check_contains "element store" "table[0] = 10" out

let test_sound_locals_option () =
  let options =
    { Translate.Pass.default_options with Translate.Pass.sound_locals = true }
  in
  let out = translated_text ~options Exp.Example41.source in
  (* tmp is hoisted into a shared global pointer *)
  check_contains "tmp now global" "int *tmp;" out;
  check_contains "tmp allocated" "tmp = (int*)RCCE_shmalloc" out;
  check_contains "tmp written through pointer" "*tmp = 1" out

let test_on_chip_placement_uses_rcce_malloc () =
  let options =
    { Translate.Pass.default_options with
      Translate.Pass.capacity = 8 * 1024 }
  in
  let out = translated_text ~options Exp.Example41.source in
  check_contains "small shared data on chip" "RCCE_malloc" out;
  check_absent "nothing off chip" "RCCE_shmalloc" out

let test_too_many_threads_rejected () =
  let src =
    {|#include <pthread.h>
      void *w(void *a) { pthread_exit(NULL); }
      int main() {
        pthread_t t[100];
        int i;
        for (i = 0; i < 100; i++) { pthread_create(&t[i], NULL, w, (void *)i); }
        return 0;
      }|}
  in
  match translate src with
  | _ -> Alcotest.fail "100 threads on 48 cores should be rejected"
  | exception Translate.Driver.Error (Translate.Driver.Too_many_threads (100, 48)) ->
      ()
  | exception Translate.Driver.Error e ->
      Alcotest.failf "wrong error: %s" (Translate.Driver.error_to_string e)

let test_parse_error_reported () =
  match translate "int main( {" with
  | _ -> Alcotest.fail "should not parse"
  | exception Translate.Driver.Error (Translate.Driver.Parse_error _) -> ()

(* --- properties -------------------------------------------------------------- *)

(* every benchmark source we generate translates with no pthread token
   surviving, and the output reparses *)
let test_no_pthread_survivors () =
  let sources =
    [ Exp.Example41.source;
      Exp.Csrc.pi ~nt:8 ~steps:1000;
      Exp.Csrc.primes ~nt:8 ~limit:100;
      Exp.Csrc.mutex_counter ~nt:4 ~iters:10 ]
  in
  List.iter
    (fun src ->
      let out = translated_text src in
      check_absent "no pthread anywhere" "pthread" out;
      match Parser.program out with
      | _ -> ()
      | exception Srcloc.Error (loc, msg) ->
          Alcotest.failf "output does not reparse: %s: %s"
            (Srcloc.to_string loc) msg)
    sources

let test_serial_program_translates () =
  (* no threads at all: the conversion must still produce a valid RCCE
     program (every core runs the whole computation) *)
  let src =
    {|#include <stdio.h>
      int total;
      int main() {
        int i;
        for (i = 1; i <= 10; i++) { total = total + i; }
        printf("%d
", total);
        return 0;
      }|}
  in
  let out, report = Translate.Driver.translate_to_string src in
  check_contains "still gets RCCE scaffolding" "RCCE_init" out;
  check_contains "shared global allocated" "total = (int*)RCCE_shmalloc" out;
  Alcotest.(check (option int)) "zero threads" (Some 0)
    report.Translate.Driver.thread_count;
  (* and it runs: every process computes and prints 55 *)
  let translated, _ = Translate.Driver.translate_source src in
  let r = Cexec.Interp.run_rcce ~ncores:2 translated in
  String.split_on_char '
' (String.trim r.Cexec.Interp.output)
  |> List.iter (fun line -> Alcotest.(check string) "sum printed" "55" line)

let test_no_main_is_handled () =
  (* a translation unit without main: passes run, nothing to insert into *)
  let src = "int helper(int x) { return x + 1; }" in
  let out, _ = Translate.Driver.translate_to_string src in
  check_contains "function preserved" "helper" out

let test_report_contents () =
  let _, report = translate Exp.Example41.source in
  Alcotest.(check (option int)) "thread count" (Some 3)
    report.Translate.Driver.thread_count;
  Alcotest.(check bool) "notes mention the create loop" true
    (List.exists
       (fun n -> contains ~needle:"dismantled create loop" n)
       report.Translate.Driver.notes)

(* A shared pointer global keeps its initializer: every rank assigns
   it, rewritten like any other use ([&y] of a scalar-shared [y] is [y]),
   in place of a backing allocation. *)
let test_pointer_initializer_kept () =
  let src =
    "#include <stdio.h>\n\
     int y = 5;\n\
     int *p = &y;\n\
     int main() { printf(\"%d\\n\", *p); return 0; }\n"
  in
  List.iter
    (fun optimize ->
      let options =
        { Translate.Pass.default_options with
          Translate.Pass.ncores = 2; optimize }
      in
      let translated, _ = translate ~options src in
      let r = Cexec.Interp.run_rcce ~ncores:2 translated in
      Alcotest.(check string)
        (Printf.sprintf "both ranks print 5 (optimize %b)" optimize)
        "5\n5\n" r.Cexec.Interp.output)
    [ false; true ]

let suite =
  [
    Alcotest.test_case "Example 4.2 shape" `Quick test_example_4_2_shape;
    Alcotest.test_case "statement order" `Quick test_statement_order_in_main;
    Alcotest.test_case "output reparses" `Quick test_translation_reparses;
    Alcotest.test_case "standalone creates pinned" `Quick
      test_standalone_create_pinned;
    Alcotest.test_case "mutex conversion" `Quick test_mutex_conversion;
    Alcotest.test_case "two mutexes" `Quick test_two_mutexes_two_registers;
    Alcotest.test_case "pthread_self" `Quick test_pthread_self_replaced;
    Alcotest.test_case "prior malloc removed" `Quick
      test_prior_malloc_removed;
    Alcotest.test_case "non-zero initializer" `Quick
      test_nonzero_initializer_reemitted;
    Alcotest.test_case "sound locals" `Quick test_sound_locals_option;
    Alcotest.test_case "on-chip placement" `Quick
      test_on_chip_placement_uses_rcce_malloc;
    Alcotest.test_case "too many threads" `Quick
      test_too_many_threads_rejected;
    Alcotest.test_case "parse errors" `Quick test_parse_error_reported;
    Alcotest.test_case "no pthread survivors" `Quick
      test_no_pthread_survivors;
    Alcotest.test_case "serial program" `Quick
      test_serial_program_translates;
    Alcotest.test_case "no main" `Quick test_no_main_is_handled;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "pointer global keeps its initializer" `Quick
      test_pointer_initializer_kept;
  ]
