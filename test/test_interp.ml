open Cfront

(* The C interpreter: expression and statement semantics, pointers,
   functions, pthreads, RCCE programs, and the end-to-end equivalence of
   original vs translated benchmarks. *)

let run_main ?cfg src =
  Cexec.Interp.run_pthread ?cfg (Parser.program ~file:"t.c" src)

let output src = (run_main src).Cexec.Interp.output

let check_output msg src expected =
  Alcotest.(check string) msg expected (output src)

let exit_value src =
  match (run_main src).Cexec.Interp.exit_values with
  | [ v ] -> Cexec.Value.as_int v
  | _ -> Alcotest.fail "expected one exit value"

let check_exit msg src expected =
  Alcotest.(check int) msg expected (exit_value src)

(* --- expressions ------------------------------------------------------------ *)

let test_arithmetic () =
  check_exit "precedence" "int main() { return 2 + 3 * 4; }" 14;
  check_exit "division truncates" "int main() { return 7 / 2; }" 3;
  check_exit "modulo" "int main() { return 17 % 5; }" 2;
  check_exit "unary minus" "int main() { return -(3 - 5); }" 2;
  check_exit "bitwise" "int main() { return (6 & 3) | (1 << 4); }" 18;
  check_exit "comparison yields 0/1" "int main() { return (3 < 5) + (5 < 3); }" 1;
  check_exit "logical not" "int main() { return !0 + !7; }" 1;
  check_exit "ternary" "int main() { return 1 ? 10 : 20; }" 10

let test_floats () =
  check_output "float arithmetic"
    {|int main() { double x = 1.5; double y = x * 4.0 + 0.25; printf("%f\n", y); return 0; }|}
    "6.250000\n";
  check_exit "int/float conversion" "int main() { double d = 7.9; return (int)d; }" 7;
  check_exit "mixed promotes" "int main() { return (int)(1 / 2.0 * 8.0); }" 4

let test_short_circuit () =
  (* the second operand must not be evaluated (it would divide by zero) *)
  check_exit "&& short-circuits" "int main() { int z = 0; return 0 && (1 / z); }" 0;
  check_exit "|| short-circuits" "int main() { int z = 0; return 1 || (1 / z); }" 1

let test_compound_assignment () =
  check_exit "+= and *=" "int main() { int a = 3; a += 4; a *= 2; return a; }" 14;
  check_exit "pre/post increment"
    "int main() { int a = 5; int b = a++; int c = ++a; return b * 10 + c; }" 57

let test_division_by_zero () =
  match run_main "int main() { int z = 0; return 1 / z; }" with
  | _ -> Alcotest.fail "division by zero should raise"
  | exception Cexec.Value.Type_error _ -> ()

(* --- control flow ------------------------------------------------------------- *)

let test_loops () =
  check_exit "for loop sum"
    "int main() { int s = 0; int i; for (i = 1; i <= 10; i++) { s += i; } return s; }"
    55;
  check_exit "while with break"
    {|int main() {
        int i = 0;
        while (1) { if (i == 7) break; i++; }
        return i;
      }|}
    7;
  check_exit "continue skips"
    {|int main() {
        int s = 0; int i;
        for (i = 0; i < 10; i++) { if (i % 2) continue; s += i; }
        return s;
      }|}
    20;
  check_exit "do-while runs once"
    "int main() { int i = 100; do { i++; } while (i < 5); return i; }" 101

let test_nested_control () =
  check_exit "nested loops"
    {|int main() {
        int total = 0; int i; int j;
        for (i = 0; i < 5; i++) {
          for (j = 0; j < 5; j++) {
            if (j > i) break;
            total++;
          }
        }
        return total;
      }|}
    15

(* --- pointers and arrays --------------------------------------------------- *)

let test_pointers () =
  check_exit "address and deref"
    "int main() { int x = 5; int *p = &x; *p = 9; return x; }" 9;
  check_exit "pointer arithmetic"
    {|int main() {
        int a[4];
        int *p = a;
        *(p + 2) = 42;
        return a[2];
      }|}
    42;
  check_exit "array indexing"
    {|int main() {
        int a[8]; int i;
        for (i = 0; i < 8; i++) { a[i] = i * i; }
        return a[5];
      }|}
    25;
  check_exit "pointer into array element"
    {|int main() {
        int a[3]; a[1] = 7;
        int *p = &a[1];
        return *p;
      }|}
    7

let test_global_state () =
  check_exit "globals initialized"
    "int g = 42;\nint main() { return g; }" 42;
  check_exit "global array initializer"
    "int a[3] = {5, 6, 7};\nint main() { return a[0] + a[1] + a[2]; }" 18;
  check_exit "global default zero" "int z;\nint main() { return z; }" 0

let test_functions () =
  check_exit "call and return"
    "int add(int a, int b) { return a + b; }\nint main() { return add(3, 4); }"
    7;
  check_exit "recursion"
    {|int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
      int main() { return fib(10); }|}
    55;
  check_exit "pointer argument mutates"
    {|void bump(int *p) { *p = *p + 1; }
      int main() { int x = 10; bump(&x); bump(&x); return x; }|}
    12;
  check_exit "locals are per call"
    {|int f(int n) { int local = n * 2; return local; }
      int main() { return f(1) + f(2); }|}
    6;
  (* C's block scoping: each declaration is a binding of its own *)
  check_exit "a for declaration ends with its loop"
    {|int main() {
        int i = 5; int s = 0;
        for (int i = 0; i < 3; i++) s += i;
        return s * 10 + i;
      }|}
    35;
  check_exit "a block local shadows a parameter"
    "int f(int n) { { int n = 100; } return n; }\nint main() { return f(7); }"
    7;
  check_exit "a declarator sees the ones before it"
    "int main() { int a = 2, b = a * 3; return b; }" 6

let test_printf () =
  check_output "int formatting"
    {|int main() { printf("a=%d b=%d\n", 1, 2 + 3); return 0; }|}
    "a=1 b=5\n";
  check_output "percent escape" {|int main() { printf("100%%\n"); return 0; }|}
    "100%\n";
  check_output "char" {|int main() { printf("%c%c\n", 104, 105); return 0; }|}
    "hi\n";
  (* as gcc's build prints it *)
  check_output "string and char width, string precision, unsigned"
    {|int main() {
        printf("%5s|%-3c|%.2s|%u|%X\n", "ab", 104, "xyz", -1, 255);
        return 0;
      }|}
    "   ab|h  |xy|4294967295|FF\n"

let test_null_dereference_reported () =
  (match run_main "int main() { int *p = NULL; return *p; }" with
  | _ -> Alcotest.fail "null read should raise"
  | exception Cexec.Interp.Runtime_error msg ->
      Alcotest.(check bool) "mentions null" true
        (let needle = "null pointer" in
         let n = String.length needle and m = String.length msg in
         let rec scan i =
           i + n <= m && (String.sub msg i n = needle || scan (i + 1))
         in
         scan 0));
  match run_main "int main() { int *p = NULL; *p = 1; return 0; }" with
  | _ -> Alcotest.fail "null write should raise"
  | exception Cexec.Interp.Runtime_error _ -> ()

let test_unbound_variable_reported () =
  List.iter
    (fun (src, expected) ->
      match run_main src with
      | _ -> Alcotest.fail "unbound variable should raise"
      | exception Srcloc.Error (loc, msg) ->
          Alcotest.(check string) "located at parse time" expected
            (Srcloc.to_string loc ^ ": " ^ msg))
    [ ( "int main() { return nosuch; }",
        "t.c:1:14: identifier 'nosuch' is not declared in this scope" );
      (* a callee does not see its caller's locals *)
      ( "int f() { return y; }\nint main() { int y = 3; return f(); }",
        "t.c:1:11: identifier 'y' is not declared in this scope" ) ]

let test_unknown_function_reported () =
  match run_main "int main() { return mystery(1); }" with
  | _ -> Alcotest.fail "unknown function should raise"
  | exception Cexec.Interp.Runtime_error _ -> ()

(* --- pthread programs ----------------------------------------------------- *)

let test_pthread_example_4_1 () =
  let r = Cexec.Interp.run_pthread (Exp.Example41.parse ()) in
  Alcotest.(check string) "the paper's example output"
    "Sum Array: 1\nSum Array: 2\nSum Array: 3\n" r.Cexec.Interp.output

let test_pthread_mutex_counter () =
  let src = Exp.Csrc.mutex_counter ~nt:4 ~iters:25 in
  let r = Cexec.Interp.run_pthread (Parser.program src) in
  Alcotest.(check string) "all increments counted" "counter = 100\n"
    r.Cexec.Interp.output

(* Regression for the hashed sync-object tables: with dozens of distinct
   mutexes the old association-list lookup went quadratic; this pins the
   behaviour (every lock distinct, all increments counted, repeat runs
   cycle-identical). *)
let test_many_mutexes () =
  let n = 64 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "#include <pthread.h>\nint counter;\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "pthread_mutex_t m%d;\n" i)
  done;
  Buffer.add_string buf "void *worker(void *arg) {\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "  pthread_mutex_lock(&m%d);\n\
         \  counter = counter + 1;\n\
         \  pthread_mutex_unlock(&m%d);\n"
         i i)
  done;
  Buffer.add_string buf "  return NULL;\n}\n";
  Buffer.add_string buf
    {|int main() {
        pthread_t t[4];
        int i;
        for (i = 0; i < 4; i++) pthread_create(&t[i], NULL, worker, NULL);
        for (i = 0; i < 4; i++) pthread_join(t[i], NULL);
        printf("%d\n", counter);
        return 0;
      }|};
  let src = Buffer.contents buf in
  let a = run_main src in
  let b = run_main src in
  Alcotest.(check string) "all increments counted" "256\n"
    a.Cexec.Interp.output;
  Alcotest.(check string) "output deterministic" a.Cexec.Interp.output
    b.Cexec.Interp.output;
  Alcotest.(check int) "cycle-identical" a.Cexec.Interp.elapsed_ps
    b.Cexec.Interp.elapsed_ps

let test_pthread_threads_share_globals () =
  check_output "threads see each other's writes"
    {|#include <pthread.h>
      #include <stdio.h>
      int x;
      void *w(void *a) { x = x + 10; pthread_exit(NULL); }
      int main() {
        pthread_t t;
        x = 5;
        pthread_create(&t, NULL, w, NULL);
        pthread_join(t, NULL);
        printf("%d\n", x);
        return 0;
      }|}
    "15\n"

(* --- RCCE programs ----------------------------------------------------------- *)

let run_rcce ~ncores src =
  Cexec.Interp.run_rcce ~ncores (Parser.program ~file:"t.c" src)

let test_rcce_ue_and_shared () =
  let r =
    run_rcce ~ncores:4
      {|#include <stdio.h>
        int *cells;
        int RCCE_APP(int argc, char **argv) {
          RCCE_init(&argc, &argv);
          cells = (int*)RCCE_shmalloc(sizeof(int) * 4);
          int me;
          me = RCCE_ue();
          cells[me] = me * me;
          RCCE_barrier(&RCCE_COMM_WORLD);
          if (me == 0) {
            int i;
            int total = 0;
            for (i = 0; i < 4; i++) { total = total + cells[i]; }
            printf("total = %d\n", total);
          }
          RCCE_finalize();
          return 0;
        }|}
  in
  Alcotest.(check string) "shared cells summed" "total = 14\n"
    r.Cexec.Interp.output

let test_rcce_globals_are_private () =
  (* each process has its own copy of an ordinary global *)
  let r =
    run_rcce ~ncores:3
      {|#include <stdio.h>
        int mine;
        int RCCE_APP(int argc, char **argv) {
          RCCE_init(&argc, &argv);
          mine = RCCE_ue() + 1;
          RCCE_barrier(&RCCE_COMM_WORLD);
          printf("%d", mine);
          RCCE_finalize();
          return 0;
        }|}
  in
  (* each prints its own value; order is simulation order but the
     multiset must be {1,2,3} *)
  let sorted =
    r.Cexec.Interp.output |> String.to_seq |> List.of_seq
    |> List.sort compare |> List.to_seq |> String.of_seq
  in
  Alcotest.(check string) "private globals" "123" sorted

let test_rcce_locks () =
  let r =
    run_rcce ~ncores:4
      {|#include <stdio.h>
        int *counter;
        int RCCE_APP(int argc, char **argv) {
          RCCE_init(&argc, &argv);
          counter = (int*)RCCE_shmalloc(sizeof(int) * 1);
          int i;
          for (i = 0; i < 10; i++) {
            RCCE_acquire_lock(0);
            *counter = *counter + 1;
            RCCE_release_lock(0);
          }
          RCCE_barrier(&RCCE_COMM_WORLD);
          if (RCCE_ue() == 0) { printf("%d\n", *counter); }
          RCCE_finalize();
          return 0;
        }|}
  in
  Alcotest.(check string) "lock-protected count" "40\n" r.Cexec.Interp.output

let test_rcce_mpb_malloc () =
  let r =
    run_rcce ~ncores:2
      {|#include <stdio.h>
        int *fast;
        int RCCE_APP(int argc, char **argv) {
          RCCE_init(&argc, &argv);
          fast = (int*)RCCE_malloc(sizeof(int) * 2);
          fast[RCCE_ue()] = 7 + RCCE_ue();
          RCCE_barrier(&RCCE_COMM_WORLD);
          if (RCCE_ue() == 1) { printf("%d %d\n", fast[0], fast[1]); }
          RCCE_finalize();
          return 0;
        }|}
  in
  Alcotest.(check string) "on-chip shared data" "7 8\n" r.Cexec.Interp.output

let test_translated_on_chip_placement_runs () =
  (* translate with on-chip capacity: the output allocates with
     RCCE_malloc, and the interpreter serves it from the simulated MPB
     with the same results *)
  let program = Exp.Example41.parse () in
  let options =
    { Translate.Pass.default_options with Translate.Pass.capacity = 8192 }
  in
  let translated, _ =
    Translate.Driver.translate_program ~options program
  in
  let text = Pretty.program translated in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec scan i = i + n <= m && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "uses the on-chip allocator" true
    (contains "RCCE_malloc");
  let r = Cexec.Interp.run_rcce ~ncores:3 translated in
  Alcotest.(check string) "same sums from the MPB"
    "Sum Array: 1
Sum Array: 2
Sum Array: 3
" r.Cexec.Interp.output;
  (* and the traffic really went to the MPB *)
  let stats = Scc.Engine.stats r.Cexec.Interp.engine in
  Alcotest.(check bool) "MPB lines touched" true
    (Scc.Stats.total_mpb_lines stats > 0)

(* --- end-to-end: original vs translated --------------------------------------- *)

let end_to_end src ~nt =
  let program = Parser.program ~file:"e2e.c" src in
  let original = Cexec.Interp.run_pthread program in
  let translated, _ = Translate.Driver.translate_program program in
  let converted = Cexec.Interp.run_rcce ~ncores:nt translated in
  (original, converted)

let test_end_to_end_pi () =
  let original, converted = end_to_end (Exp.Csrc.pi ~nt:8 ~steps:4096) ~nt:8 in
  (* every process prints the same final value as the original *)
  let expected = String.trim original.Cexec.Interp.output in
  Alcotest.(check bool) "original printed pi" true
    (String.length expected > 0);
  String.split_on_char '\n' (String.trim converted.Cexec.Interp.output)
  |> List.iter (fun line -> Alcotest.(check string) "same pi" expected line);
  Alcotest.(check bool) "converted is faster" true
    (converted.Cexec.Interp.elapsed_ps < original.Cexec.Interp.elapsed_ps)

let test_end_to_end_primes () =
  let original, converted =
    end_to_end (Exp.Csrc.primes ~nt:4 ~limit:400) ~nt:4
  in
  let expected = String.trim original.Cexec.Interp.output in
  String.split_on_char '\n' (String.trim converted.Cexec.Interp.output)
  |> List.iter (fun line ->
         Alcotest.(check string) "same prime count" expected line)

let test_end_to_end_mutex () =
  let original, converted =
    end_to_end (Exp.Csrc.mutex_counter ~nt:4 ~iters:10) ~nt:4
  in
  Alcotest.(check string) "original counted" "counter = 40"
    (String.trim original.Cexec.Interp.output);
  String.split_on_char '\n' (String.trim converted.Cexec.Interp.output)
  |> List.iter (fun line ->
         Alcotest.(check string) "same count" "counter = 40" line)

let test_end_to_end_example () =
  let program = Exp.Example41.parse () in
  let original = Cexec.Interp.run_pthread program in
  let translated, _ = Translate.Driver.translate_program program in
  let converted = Cexec.Interp.run_rcce ~ncores:3 translated in
  Alcotest.(check string) "same output as the original"
    original.Cexec.Interp.output converted.Cexec.Interp.output

(* A program that parks every context ends in a diagnostic and exit 1
   from [hsmcc run], like a runtime error, never an uncaught exception. *)
(* Run [hsmcc <args>] after the shell commands [prefix] and return its
   exit status, stdout and stderr; [None] when the binary is not built
   next to the tests. *)
let hsmcc ?(prefix = "") args =
  let exe =
    if Sys.file_exists "../bin/hsmcc.exe" then "../bin/hsmcc.exe"
    else "_build/default/bin/hsmcc.exe"
  in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "skipping CLI test: %s not built\n" exe;
    None
  end
  else begin
    let out = Filename.temp_file "hsmcc" ".out" in
    let err = Filename.temp_file "hsmcc" ".err" in
    let code =
      Sys.command
        (Printf.sprintf "%s%s %s >%s 2>%s" prefix exe args
           (Filename.quote out) (Filename.quote err))
    in
    let read path =
      let text = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      text
    in
    let stdout_text = read out in
    Some (code, stdout_text, read err)
  end

(* Run [hsmcc run <src> args] on [source] and return its exit status and
   stderr. *)
let hsmcc_run ?prefix ?(args = "") source =
  let src = Filename.temp_file "hsmcc_run" ".c" in
  Out_channel.with_open_bin src (fun oc -> output_string oc source);
  let result =
    hsmcc ?prefix (Printf.sprintf "run %s %s" (Filename.quote src) args)
  in
  Sys.remove src;
  Option.map (fun (code, _, stderr_text) -> (code, stderr_text)) result

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* [hsmcc run] fails cleanly: exit 1, the expected diagnostic, never an
   uncaught exception. *)
let check_run_fails ?prefix ?args ~diagnostic source =
  match hsmcc_run ?prefix ?args source with
  | None -> ()
  | Some (code, stderr_text) ->
      Alcotest.(check int) "exit status" 1 code;
      if not (contains ~needle:diagnostic stderr_text) then
        Alcotest.failf "expected %S in stderr:\n%s" diagnostic stderr_text;
      Alcotest.(check bool) "no uncaught exception" false
        (contains ~needle:"uncaught exception" stderr_text)

let test_cli_deadlock_exit () =
  check_run_fails ~diagnostic:"hsmcc: deadlock: "
    "#include <pthread.h>\n\
     pthread_mutex_t m;\n\
     int main() {\n\
    \  pthread_mutex_lock(&m);\n\
    \  pthread_mutex_lock(&m);\n\
    \  return 0;\n\
     }\n"

(* The deadlock report counts the ranks parked at the global barrier. *)
let test_cli_barrier_deadlock () =
  check_run_fails ~args:"--cores 3"
    ~diagnostic:"hsmcc: deadlock: 2 of 3 contexts parked with no runnable \
                 context (barrier waiting: 2, join waiting: 0)"
    "int RCCE_APP(int argc, char **argv) {\n\
    \  RCCE_init(&argc, &argv);\n\
    \  if (RCCE_ue() != 0) { RCCE_barrier(&RCCE_COMM_WORLD); }\n\
    \  RCCE_finalize();\n\
    \  return 0;\n\
     }\n"

let test_cli_printf_cut_off () =
  check_run_fails
    ~diagnostic:"hsmcc: runtime error: printf: incomplete conversion"
    "int main() {\n  printf(\"width only %5\");\n  return 0;\n}\n"

let test_cli_division_by_zero () =
  check_run_fails
    ~diagnostic:"hsmcc: runtime error: integer division by zero"
    "int main() {\n  int z = 0;\n  int x = 5 / z;\n  return x;\n}\n"

let test_cli_release_unheld () =
  check_run_fails ~args:"--cores 2"
    ~diagnostic:"hsmcc: runtime error: RCCE_release_lock: lock 0 is not held"
    "int RCCE_APP(int argc, char **argv) {\n\
    \  RCCE_init(&argc, &argv);\n\
    \  RCCE_release_lock(0);\n\
    \  RCCE_finalize();\n\
    \  return 0;\n\
     }\n"

let test_cli_mpb_exhausted () =
  check_run_fails ~args:"--cores 2"
    ~diagnostic:"hsmcc: runtime error: out of memory in MPB(core 0)"
    "int RCCE_APP(int argc, char **argv) {\n\
    \  RCCE_init(&argc, &argv);\n\
    \  char *p = RCCE_malloc(100000);\n\
    \  RCCE_finalize();\n\
    \  return 0;\n\
     }\n"

(* A store outside every allocation is an error, not a store that grows
   its region to the offset: under a 2 GB address-space limit a
   regression fails fast instead of allocating gigabytes. *)
let wild_store_prefix = "ulimit -v 2000000; "

let test_cli_wild_pointer_store () =
  check_run_fails ~prefix:wild_store_prefix
    ~diagnostic:"hsmcc: runtime error: store outside every allocation \
                 (address 0x77359400)"
    "int main(void) {\n  int *p = (int *) 2000000000;\n  *p = 1;\n\
    \  return 0;\n}\n"

let test_cli_store_past_global () =
  check_run_fails ~prefix:wild_store_prefix
    ~diagnostic:"hsmcc: runtime error: store outside every allocation"
    "int g[4];\nint main(void) {\n  g[100000000] = 2;\n  return 0;\n}\n"

(* A load from an address that names no memory of the chip -- an owner
   core the chip does not have, or a region kind the layout does not
   have -- is an error before the memory model sees it, and before the
   null-pointer test, which would misreport kind 3 at offset 0. *)
let check_off_chip_load ~address pointer =
  check_run_fails
    ~diagnostic:
      ("hsmcc: runtime error: access outside the chip's memory (address "
      ^ address ^ ")")
    (Printf.sprintf
       "int main(void) {\n  int *p = (int *) (%s);\n  return *p;\n}\n"
       pointer)

let test_cli_load_unknown_owner () =
  check_off_chip_load ~address:"0x2c800000040"
    "(2L << 40) | (200L << 32) | 64"

let test_cli_load_unknown_kind () =
  check_off_chip_load ~address:"0x30000000040" "(3L << 40) + 64"

let test_cli_load_unknown_kind_offset0 () =
  check_off_chip_load ~address:"0x30000000000" "3L << 40"

(* Shared DRAM is one region, so its addresses carry owner 0: pointer
   arithmetic that carries into the owner byte leaves the chip's memory
   instead of aliasing the allocation 2^32 bytes below. *)
let test_cli_load_shared_owner () =
  check_run_fails ~args:"--cores 2"
    ~diagnostic:
      "hsmcc: runtime error: access outside the chip's memory (address \
       0x10100000020)"
    "int RCCE_APP(int argc, char **argv) {\n\
    \  RCCE_init(&argc, &argv);\n\
    \  int *s = (int *) RCCE_shmalloc(64);\n\
    \  s[0] = 7;\n\
    \  int *q = s + 1073741824;\n\
    \  printf(\"%d\\n\", *q);\n\
    \  RCCE_finalize();\n\
    \  return 0;\n\
     }\n"

(* A DRAM region holds the 2^32 bytes its offset field reaches: the
   third 1.5 GB allocation fails instead of carrying into the owner bits,
   where the fourth landed in core 1's private region.  Nothing is
   written, so the address-space limit is never approached. *)
let dram_offset_overflow =
  "int main(void) {\n\
  \  char *a = malloc(1500000000);\n\
  \  char *b = malloc(1500000000);\n\
  \  char *c = malloc(1500000000);\n\
  \  int *p = malloc(64);\n\
  \  return *p;\n\
   }\n"

let test_cli_dram_offset_overflow () =
  let diagnostic = "hsmcc: runtime error: out of memory in private(core 0)" in
  List.iter
    (fun args ->
      check_run_fails ~prefix:wild_store_prefix ~args ~diagnostic
        dram_offset_overflow)
    [ "--cores 1"; "--cores 2" ];
  (* a size whose line-rounding would wrap past [max_int] *)
  check_run_fails ~prefix:wild_store_prefix ~diagnostic
    "int main(void) {\n\
    \  char *a = malloc(4611686018427387903L);\n\
    \  int *p = malloc(64);\n\
    \  return *p;\n\
     }\n"

(* RCCE's power API takes a divider of the 1600 MHz mesh clock in
   2..16. *)
let check_divider_rejected divider =
  check_run_fails ~args:"--cores 2"
    ~diagnostic:
      "hsmcc: runtime error: RCCE_set_frequency_divider: divider outside \
       2..16"
    (Printf.sprintf
       "int RCCE_APP(int argc, char **argv) {\n\
       \  RCCE_init(&argc, &argv);\n\
       \  RCCE_set_frequency_divider(%d);\n\
       \  RCCE_finalize();\n\
       \  return 0;\n\
        }\n"
       divider)

let test_cli_divider_1 () = check_divider_rejected 1
let test_cli_divider_17 () = check_divider_rejected 17

(* The scoping corpus: under [hsmcc run] each program prints what gcc
   prints, its [.out] (CI checks those files against gcc).  Names bind by
   C's block scoping, never through a caller's frame.  Every program is
   also translated to 2 ranks, naive and with -O, and must print each
   expected line twice. *)
let test_scoping_corpus () =
  let sorted_lines text =
    List.sort String.compare
      (List.filter (( <> ) "") (String.split_on_char '\n' text))
  in
  (* the stdout of [hsmcc args], which must exit 0 *)
  let stdout_of args =
    match hsmcc args with
    | None -> raise Exit
    | Some (0, out, _) -> out
    | Some (code, _, err) ->
        Alcotest.failf "hsmcc %s: exit %d\n%s" args code err
  in
  let rcce = Filename.temp_file "scoping" ".rcce.c" in
  let check_program name =
    let src = Filename.concat "scoping" (name ^ ".c") in
    let expected =
      In_channel.with_open_bin
        (Filename.concat "scoping" (name ^ ".out"))
        In_channel.input_all
    in
    Alcotest.(check string)
      (src ^ " prints what gcc prints")
      expected
      (stdout_of ("run " ^ src));
    List.iter
      (fun flags ->
        let translated =
          stdout_of (Printf.sprintf "translate %s--cores 2 %s" flags src)
        in
        Out_channel.with_open_bin rcce (fun oc -> output_string oc translated);
        Alcotest.(check (list string))
          (Printf.sprintf "%s translated %sprints each line on both ranks" src
             flags)
          (sorted_lines (expected ^ expected))
          (sorted_lines (stdout_of ("run --cores 2 " ^ Filename.quote rcce))))
      [ ""; "-O " ]
  in
  let programs =
    Sys.readdir "scoping" |> Array.to_list
    |> List.filter_map (Filename.chop_suffix_opt ~suffix:".c")
    |> List.sort String.compare
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove rcce)
    (fun () -> try List.iter check_program programs with Exit -> ())

(* [hsmcc cmd] on [source] exits 1 with exactly the located line
   [hsmcc: <file>:<diagnostic>]. *)
let check_located_error cmd source diagnostic =
  let src = Filename.temp_file "located" ".c" in
  Out_channel.with_open_bin src (fun oc -> output_string oc source);
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      match hsmcc (cmd ^ " " ^ Filename.quote src) with
      | None -> ()
      | Some (code, _, err) ->
          Alcotest.(check (pair int string))
            (cmd ^ " " ^ diagnostic)
            (1, Printf.sprintf "hsmcc: %s:%s\n" src diagnostic)
            (code, err))

(* What C itself rejects — a second declaration in one block, or a local
   that redeclares a parameter in the body's outermost block — is a
   located error with exit 1 under [translate] and [run] alike, never an
   uncaught exception.  (Sibling [for (int i ...)] loops and shadowing
   are valid C; the scoping corpus translates them.) *)
let test_translate_duplicate_declaration () =
  List.iter
    (fun (source, diagnostic) ->
      List.iter
        (fun cmd -> check_located_error cmd source diagnostic)
        [ "translate"; "run" ])
    [
      ( "int main() {\n\
        \  int a;\n\
        \  int a;\n\
        \  return 0;\n\
         }\n",
        "3:3: duplicate declaration of a@main" );
      ( "int f(int n) {\n\
        \  int n = 2;\n\
        \  return n;\n\
         }\n\
         int main() { return f(1); }\n",
        "2:3: duplicate declaration of n@f" );
    ]

(* An undeclared identifier is the user's error: [translate] checks its
   input before the first pass and reports it located, with exit 1. *)
let test_translate_undeclared_identifier () =
  check_located_error "translate"
    "int main() {\n\
    \  int s = 0;\n\
    \  s = nosuch;\n\
    \  return s;\n\
     }\n"
    "3:3: identifier 'nosuch' is not declared in this scope"

(* C's rule for a repeated file-scope declaration, under every
   subcommand that parses: two [int x;] are one object, so each exits 0;
   a second initializer is rejected, located, with exit 1. *)
let test_duplicate_global () =
  let body = "int main() {\n  x = 1;\n  return x;\n}\n" in
  let cmds = [ "translate"; "check"; "analyze"; "run" ] in
  let tentative = Filename.temp_file "tentative" ".c" in
  Out_channel.with_open_bin tentative (fun oc ->
      output_string oc ("int x;\nint x;\n" ^ body));
  Fun.protect
    ~finally:(fun () -> Sys.remove tentative)
    (fun () ->
      List.iter
        (fun cmd ->
          match hsmcc (cmd ^ " " ^ Filename.quote tentative) with
          | None -> ()
          | Some (code, _, err) ->
              Alcotest.(check int) (cmd ^ " exits 0\n" ^ err) 0 code)
        cmds);
  List.iter
    (fun cmd ->
      check_located_error cmd ("int x = 1;\nint x = 2;\n" ^ body)
        "2:1: redefinition of x")
    cmds

(* An identifier that nothing in scope declares is the user's error at
   parse time, under every subcommand: a use in code that never runs,
   and a use of a file-scope variable before its declaration, as gcc
   rejects both. *)
let test_undeclared_identifier_everywhere () =
  List.iter
    (fun (source, diagnostic) ->
      List.iter
        (fun cmd -> check_located_error cmd source diagnostic)
        [ "translate"; "check"; "analyze"; "cfg"; "run"; "verify --cores 2" ])
    [ ( "int main() { if (0) { return y; } return 0; }\n",
        "1:23: identifier 'y' is not declared in this scope" );
      ( "#include <stdio.h>\n\
         int f(void) { return x; }\n\
         int x = 3;\n\
         int main() { printf(\"%d\\n\", f()); return 0; }\n",
        "2:15: identifier 'x' is not declared in this scope" ) ]

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "compound assignment" `Quick test_compound_assignment;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "loops" `Quick test_loops;
    Alcotest.test_case "nested control" `Quick test_nested_control;
    Alcotest.test_case "pointers" `Quick test_pointers;
    Alcotest.test_case "globals" `Quick test_global_state;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "printf" `Quick test_printf;
    Alcotest.test_case "null dereference" `Quick
      test_null_dereference_reported;
    Alcotest.test_case "unbound variable" `Quick
      test_unbound_variable_reported;
    Alcotest.test_case "unknown function" `Quick
      test_unknown_function_reported;
    Alcotest.test_case "run deadlock exits 1" `Quick test_cli_deadlock_exit;
    Alcotest.test_case "run barrier deadlock exits 1" `Quick
      test_cli_barrier_deadlock;
    Alcotest.test_case "run printf cut-off conversion exits 1" `Quick
      test_cli_printf_cut_off;
    Alcotest.test_case "run division by zero exits 1" `Quick
      test_cli_division_by_zero;
    Alcotest.test_case "run unheld lock release exits 1" `Quick
      test_cli_release_unheld;
    Alcotest.test_case "run MPB exhaustion exits 1" `Quick
      test_cli_mpb_exhausted;
    Alcotest.test_case "run wild pointer store exits 1" `Quick
      test_cli_wild_pointer_store;
    Alcotest.test_case "run store past a global exits 1" `Quick
      test_cli_store_past_global;
    Alcotest.test_case "run load from an unknown owner exits 1" `Quick
      test_cli_load_unknown_owner;
    Alcotest.test_case "run load from an unknown region kind exits 1" `Quick
      test_cli_load_unknown_kind;
    Alcotest.test_case "run load at offset 0 of an unknown kind exits 1"
      `Quick test_cli_load_unknown_kind_offset0;
    Alcotest.test_case "run frequency divider 1 exits 1" `Quick
      test_cli_divider_1;
    Alcotest.test_case "run frequency divider 17 exits 1" `Quick
      test_cli_divider_17;
    Alcotest.test_case "pthread example 4.1" `Quick test_pthread_example_4_1;
    Alcotest.test_case "pthread mutex counter" `Quick
      test_pthread_mutex_counter;
    Alcotest.test_case "threads share globals" `Quick
      test_pthread_threads_share_globals;
    Alcotest.test_case "many mutexes" `Quick test_many_mutexes;
    Alcotest.test_case "rcce ue and shared" `Quick test_rcce_ue_and_shared;
    Alcotest.test_case "rcce private globals" `Quick
      test_rcce_globals_are_private;
    Alcotest.test_case "rcce locks" `Quick test_rcce_locks;
    Alcotest.test_case "rcce MPB malloc" `Quick test_rcce_mpb_malloc;
    Alcotest.test_case "translated on-chip placement" `Quick
      test_translated_on_chip_placement_runs;
    Alcotest.test_case "end-to-end pi" `Quick test_end_to_end_pi;
    Alcotest.test_case "end-to-end primes" `Quick test_end_to_end_primes;
    Alcotest.test_case "end-to-end mutex" `Quick test_end_to_end_mutex;
    Alcotest.test_case "end-to-end example 4.1" `Quick
      test_end_to_end_example;
    Alcotest.test_case "run DRAM offset overflow exits 1" `Quick
      test_cli_dram_offset_overflow;
    Alcotest.test_case "run load past shared DRAM's owner byte exits 1"
      `Quick test_cli_load_shared_owner;
    Alcotest.test_case "run scoping corpus prints what gcc prints" `Quick
      test_scoping_corpus;
    Alcotest.test_case "translate duplicate declaration exits 1" `Quick
      test_translate_duplicate_declaration;
    Alcotest.test_case "translate undeclared identifier exits 1" `Quick
      test_translate_undeclared_identifier;
    Alcotest.test_case "duplicate global exits 1 except under run" `Quick
      test_duplicate_global;
    Alcotest.test_case "undeclared identifier exits 1 under every subcommand"
      `Quick test_undeclared_identifier_everywhere;
  ]
