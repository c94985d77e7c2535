open Cfront

(* The static lockset race detector, and its differential guarantee
   against the dynamic Eraser detector: every race the interpreter sees
   is also reported statically (the static analysis over-approximates;
   the reverse containment does not hold, by design). *)

let session src = Session.create (Parser.program ~file:"r.c" src)

let static_races src = Session.races (session src)

(* base names of statically racy variables ("counter", not "i@work") *)
let static_names src =
  List.map
    (fun v ->
      let s = Ir.Var_id.to_string v in
      match String.index_opt s '@' with
      | Some i -> String.sub s 0 i
      | None -> s)
    (Analysis.Race.racy_variables (static_races src))

(* dynamic racy locations, reduced to variable base names: array
   elements report as "name[+16]", heap regions as "shmalloc#0" *)
let dynamic_names src =
  let r =
    Cexec.Interp.run_pthread ~detect_races:true
      (Parser.program ~file:"r.c" src)
  in
  List.filter_map
    (fun (rep : Cexec.Lockset.report) ->
      let l = rep.Cexec.Lockset.location in
      match String.index_opt l '[' with
      | Some i -> Some (String.sub l 0 i)
      | None -> if String.contains l '#' then None else Some l)
    r.Cexec.Interp.races

(* --- the acceptance pair ---------------------------------------------------- *)

let racy_branch =
  {|#include <pthread.h>
    int data;
    int enable;
    void *work(void *tid) {
      if (enable) { data = data + 1; }
      pthread_exit(NULL);
    }
    int main() {
      int t;
      pthread_t threads[4];
      for (t = 0; t < 4; t++) {
        pthread_create(&threads[t], NULL, work, (void *) t);
      }
      for (t = 0; t < 4; t++) { pthread_join(threads[t], NULL); }
      return data;
    }|}

let test_schedule_hidden_race_found_statically () =
  (* the write sits behind a branch the default schedule never takes:
     invisible dynamically, reported statically with a source location *)
  Alcotest.(check (list string)) "dynamic detector sees nothing" []
    (dynamic_names racy_branch);
  let t = static_races racy_branch in
  match t.Analysis.Race.races with
  | [ r ] ->
      Alcotest.(check string) "racy variable" "data"
        (Ir.Var_id.to_string r.Analysis.Race.rvar);
      let loc = r.Analysis.Race.writer.Analysis.Race.loc in
      Alcotest.(check bool) "anchored at the guarded write" true
        (loc.Srcloc.line > 1 && loc.Srcloc.col > 0)
  | rs -> Alcotest.failf "expected exactly 1 race, got %d" (List.length rs)

let test_locked_variant_clean () =
  Alcotest.(check (list string)) "mutex-protected counter is clean" []
    (static_names (Exp.Csrc.mutex_counter ~nt:3 ~iters:5))

(* --- lockset precision ------------------------------------------------------ *)

let test_unsync_counter_races () =
  Alcotest.(check (list string)) "self-race of a multi-instance thread"
    [ "counter" ]
    (static_names
       {|#include <pthread.h>
         int counter;
         void *w(void *a) {
           int i;
           for (i = 0; i < 5; i++) { counter = counter + 1; }
           pthread_exit(NULL);
         }
         int main() {
           pthread_t t[3];
           int i;
           for (i = 0; i < 3; i++) {
             pthread_create(&t[i], NULL, w, (void *)i);
           }
           for (i = 0; i < 3; i++) { pthread_join(t[i], NULL); }
           return counter;
         }|})

let test_inconsistent_locking_races () =
  (* one thread function locks, the other touches the variable bare:
     must-held locksets are disjoint, so the pair races *)
  Alcotest.(check (list string)) "disjoint locksets" [ "counter" ]
    (static_names
       {|#include <pthread.h>
         int counter;
         pthread_mutex_t m;
         void *locked(void *a) {
           pthread_mutex_lock(&m);
           counter = counter + 1;
           pthread_mutex_unlock(&m);
           pthread_exit(NULL);
         }
         void *bare(void *a) {
           counter = counter + 1;
           pthread_exit(NULL);
         }
         int main() {
           pthread_t t1;
           pthread_t t2;
           pthread_mutex_init(&m, NULL);
           pthread_create(&t1, NULL, locked, NULL);
           pthread_create(&t2, NULL, bare, NULL);
           pthread_join(t1, NULL);
           pthread_join(t2, NULL);
           return counter;
         }|})

let test_conditional_lock_is_not_must_held () =
  (* lock taken on only one path: the must-hold join (intersection)
     drops it, so the access still races *)
  Alcotest.(check (list string)) "branch-only lock does not protect"
    [ "counter" ]
    (static_names
       {|#include <pthread.h>
         int counter;
         pthread_mutex_t m;
         void *w(void *a) {
           if ((int) a > 0) { pthread_mutex_lock(&m); }
           counter = counter + 1;
           pthread_mutex_unlock(&m);
           pthread_exit(NULL);
         }
         int main() {
           pthread_t t[2];
           int i;
           for (i = 0; i < 2; i++) {
             pthread_create(&t[i], NULL, w, (void *)i);
           }
           for (i = 0; i < 2; i++) { pthread_join(t[i], NULL); }
           return counter;
         }|})

let test_creator_prejoin_write_races () =
  (* main writes the shared variable between create and join: the
     creator context overlaps the workers *)
  Alcotest.(check (list string)) "creator overlaps workers" [ "counter" ]
    (static_names
       {|#include <pthread.h>
         int counter;
         void *w(void *a) {
           counter = counter + 1;
           pthread_exit(NULL);
         }
         int main() {
           pthread_t t;
           pthread_create(&t, NULL, w, NULL);
           counter = 7;
           pthread_join(t, NULL);
           return counter;
         }|})

let test_postjoin_read_is_ordered () =
  (* the unsynchronized workers race among themselves, but main's
     post-join read must NOT be half of any reported pair *)
  let t =
    static_races
      {|#include <pthread.h>
        int counter;
        void *w(void *a) {
          counter = counter + 1;
          pthread_exit(NULL);
        }
        int main() {
          pthread_t t[2];
          int i;
          for (i = 0; i < 2; i++) {
            pthread_create(&t[i], NULL, w, (void *)i);
          }
          for (i = 0; i < 2; i++) { pthread_join(t[i], NULL); }
          return counter;
        }|}
  in
  List.iter
    (fun (r : Analysis.Race.race) ->
      List.iter
        (fun (a : Analysis.Race.access) ->
          Alcotest.(check string) "no access from the creator after join"
            "w" a.Analysis.Race.in_func)
        [ r.Analysis.Race.writer; r.Analysis.Race.other ])
    t.Analysis.Race.races;
  Alcotest.(check bool) "workers still race" true
    (t.Analysis.Race.races <> [])

(* --- differential: dynamic ⊆ static ---------------------------------------- *)

let differential_sources =
  [
    ("pi", Exp.Csrc.pi ~nt:3 ~steps:60);
    ("primes", Exp.Csrc.primes ~nt:3 ~limit:40);
    ("sum35", Exp.Csrc.sum35 ~nt:3 ~bound:45);
    ("dot", Exp.Csrc.dot ~nt:3 ~n:48);
    ("stream", Exp.Csrc.stream ~nt:2 ~n:32);
    ("lu", Exp.Csrc.lu ~nt:2 ~n:8);
    ("mutex_counter", Exp.Csrc.mutex_counter ~nt:3 ~iters:5);
    ("racy_branch", racy_branch);
  ]

let test_dynamic_races_subset_of_static () =
  List.iter
    (fun (name, src) ->
      let stat = static_names src in
      List.iter
        (fun dyn ->
          Alcotest.(check bool)
            (Printf.sprintf
               "%s: dynamic race on '%s' also reported statically (static: %s)"
               name dyn (String.concat "," stat))
            true (List.mem dyn stat))
        (dynamic_names src))
    differential_sources

(* --- diagnostics ------------------------------------------------------------ *)

let test_check_produces_located_warnings () =
  let diags = Session.race_diags (session racy_branch) in
  match diags with
  | [ d ] ->
      Alcotest.(check string) "severity" "warning"
        (Diag.severity_to_string d.Diag.severity);
      Alcotest.(check string) "code" "race" d.Diag.code;
      Alcotest.(check bool) "has a location" true (d.Diag.loc <> None);
      Alcotest.(check bool) "names the variable" true
        (String.length d.Diag.message > 0
        && String.sub d.Diag.message 0 17 = "data race on 'dat")
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let suite =
  [
    Alcotest.test_case "schedule-hidden race found statically" `Quick
      test_schedule_hidden_race_found_statically;
    Alcotest.test_case "locked variant clean" `Quick test_locked_variant_clean;
    Alcotest.test_case "unsync counter races" `Quick test_unsync_counter_races;
    Alcotest.test_case "inconsistent locking races" `Quick
      test_inconsistent_locking_races;
    Alcotest.test_case "conditional lock not must-held" `Quick
      test_conditional_lock_is_not_must_held;
    Alcotest.test_case "creator pre-join write races" `Quick
      test_creator_prejoin_write_races;
    Alcotest.test_case "post-join read ordered" `Quick
      test_postjoin_read_is_ordered;
    Alcotest.test_case "dynamic subset of static" `Quick
      test_dynamic_races_subset_of_static;
    Alcotest.test_case "check produces located warnings" `Quick
      test_check_produces_located_warnings;
  ]
