open Cfront

(* Stages 1-3 on the paper's running example and on targeted programs:
   Table 4.1 / 4.2 reproduction, Algorithm 1 classification, points-to
   definiteness, and the sharing lattice. *)

let pipeline program = Session.pipeline (Session.create program)

let analyze src = pipeline (Parser.program src)

let example_analysis () = pipeline (Exp.Example41.parse ())

(* The paper's Table 4.2, verbatim. *)
let test_table_4_2_matches_paper () =
  let a = example_analysis () in
  let expected =
    [ ("global", "true", "true", "false");
      ("ptr", "true", "true", "true");
      ("sum", "true", "true", "true");
      ("tLocal", "null", "false", "false");
      ("tid", "null", "false", "false");
      ("local", "null", "false", "false");
      ("tmp", "null", "false", "true");
      ("threads", "null", "false", "false");
      ("rc", "null", "false", "false") ]
  in
  let rows = List.tl (Analysis.Pipeline.table_4_2 a) in
  List.iter
    (fun (name, s1, s2, s3) ->
      match
        List.find_opt (fun row -> List.nth row 0 = name) rows
      with
      | Some [ _; g1; g2; g3 ] ->
          Alcotest.(check (list string))
            (name ^ " status per stage") [ s1; s2; s3 ] [ g1; g2; g3 ]
      | Some _ | None -> Alcotest.failf "missing row for %s" name)
    expected

let test_table_4_1_structure () =
  let a = example_analysis () in
  let rows = Analysis.Pipeline.table_4_1 a in
  Alcotest.(check int) "9 variables + header" 10 (List.length rows);
  let names = List.map (fun row -> List.nth row 0) (List.tl rows) in
  Alcotest.(check (list string))
    "declaration order matches the paper"
    [ "global"; "ptr"; "sum"; "tid"; "tLocal"; "local"; "tmp"; "threads";
      "rc" ]
    names

let find_info a name =
  let scope = a.Analysis.Pipeline.scope in
  match
    List.find_opt
      (fun (i : Analysis.Varinfo.t) -> i.Analysis.Varinfo.id.Ir.Var_id.name = name)
      (Analysis.Scope_analysis.infos scope)
  with
  | Some i -> i
  | None -> Alcotest.failf "no variable %s" name

let test_counts_on_example () =
  let a = example_analysis () in
  let check name reads writes =
    let i = find_info a name in
    Alcotest.(check (pair int int))
      (name ^ " rd/wr") (reads, writes)
      (i.Analysis.Varinfo.reads, i.Analysis.Varinfo.writes)
  in
  (* matches Table 4.1 exactly *)
  check "global" 0 0;
  check "ptr" 1 1;
  check "tLocal" 3 1;
  check "tid" 1 0;
  check "threads" 2 0;
  check "tmp" 1 1;
  (* the three cells where the thesis's own table is internally
     inconsistent (see EXPERIMENTS.md): our principled conventions give *)
  check "sum" 3 3;
  check "local" 8 5;
  check "rc" 0 1

let test_use_def_attribution () =
  let a = example_analysis () in
  let sum = find_info a "sum" in
  Alcotest.(check (list string)) "sum used in" [ "tf"; "main" ]
    sum.Analysis.Varinfo.use_in;
  Alcotest.(check (list string)) "sum defined in" [ "tf" ]
    sum.Analysis.Varinfo.def_in

(* --- Stage 2 / Algorithm 1 ------------------------------------------------ *)

let test_thread_sites () =
  let a = example_analysis () in
  let th = a.Analysis.Pipeline.threads in
  Alcotest.(check (list string)) "thread functions" [ "tf" ]
    th.Analysis.Thread_analysis.thread_funcs;
  match th.Analysis.Thread_analysis.sites with
  | [ site ] ->
      Alcotest.(check bool) "create in loop" true
        site.Analysis.Thread_analysis.in_loop;
      Alcotest.(check (option int)) "trip count 3" (Some 3)
        site.Analysis.Thread_analysis.loop_trip;
      Alcotest.(check bool) "argument is the loop counter" true
        site.Analysis.Thread_analysis.arg_is_thread_id
  | sites -> Alcotest.failf "expected 1 site, got %d" (List.length sites)

let test_algorithm_1 () =
  let a = example_analysis () in
  let th = a.Analysis.Pipeline.threads in
  let presence name scope =
    Analysis.Thread_analysis.presence th
      (match scope with
      | `Global -> Ir.Var_id.global name
      | `Local f -> Ir.Var_id.local ~func:f name
      | `Param f -> Ir.Var_id.param ~func:f name)
  in
  Alcotest.(check string) "sum in multiple threads" "In Multiple Threads"
    (Analysis.Thread_analysis.presence_to_string (presence "sum" `Global));
  Alcotest.(check string) "tLocal in multiple threads (launch x3)"
    "In Multiple Threads"
    (Analysis.Thread_analysis.presence_to_string
       (presence "tLocal" (`Local "tf")));
  Alcotest.(check string) "local not in thread" "Not in Thread"
    (Analysis.Thread_analysis.presence_to_string
       (presence "local" (`Local "main")))

let test_single_thread_classification () =
  let a =
    analyze
      {|#include <pthread.h>
        int shared_x;
        void *once(void *arg) { shared_x = 1; pthread_exit(NULL); }
        int main() {
          pthread_t t;
          pthread_create(&t, NULL, once, NULL);
          pthread_join(t, NULL);
          return shared_x;
        }|}
  in
  let th = a.Analysis.Pipeline.threads in
  Alcotest.(check string) "created once -> single thread"
    "In Single Thread"
    (Analysis.Thread_analysis.presence_to_string
       (Analysis.Thread_analysis.presence th (Ir.Var_id.global "shared_x")))

let test_static_thread_count () =
  let a = example_analysis () in
  Alcotest.(check (option int)) "3 threads" (Some 3)
    (Analysis.Thread_analysis.static_thread_count
       a.Analysis.Pipeline.threads)

(* --- Stage 3 / points-to --------------------------------------------------- *)

let test_points_to_example () =
  let a = example_analysis () in
  let targets =
    Analysis.Points_to.definite_var_targets a.Analysis.Pipeline.points_to
      (Ir.Var_id.global "ptr")
  in
  Alcotest.(check (list string)) "ptr definitely points to tmp"
    [ "tmp@main" ]
    (List.map Ir.Var_id.to_string targets)

let test_points_to_possible_after_branch () =
  let a =
    analyze
      {|int x; int y; int *p;
        int main(int c) {
          if (c) { p = &x; } else { p = &y; }
          return *p;
        }|}
  in
  let rels =
    Analysis.Points_to.targets_of a.Analysis.Pipeline.points_to
      (Ir.Var_id.global "p")
  in
  let definiteness tgt =
    List.find_map
      (fun (t, d) ->
        match t with
        | Analysis.Points_to.Tvar id when Ir.Var_id.to_string id = tgt ->
            Some d
        | _ -> None)
      rels
  in
  Alcotest.(check bool) "x is a possible target" true
    (definiteness "x" = Some Analysis.Points_to.Possible);
  Alcotest.(check bool) "y is a possible target" true
    (definiteness "y" = Some Analysis.Points_to.Possible)

let test_points_to_interprocedural () =
  (* pointer passed into a function: the parameter inherits the target *)
  let a =
    analyze
      {|int g;
        void set(int *q) { *q = 1; }
        int main() { set(&g); return g; }|}
  in
  let targets =
    Analysis.Points_to.definite_var_targets a.Analysis.Pipeline.points_to
      (Ir.Var_id.param ~func:"set" "q")
  in
  Alcotest.(check (list string)) "q points to g" [ "g" ]
    (List.map Ir.Var_id.to_string targets)

let test_sharing_propagates_through_pointer () =
  (* tmp becomes shared because shared ptr definitely points at it *)
  let a = example_analysis () in
  Alcotest.(check bool) "tmp shared after stage 3" true
    (Analysis.Pipeline.is_shared a (Ir.Var_id.local ~func:"main" "tmp"))

let test_unused_global_demoted () =
  let a = example_analysis () in
  Alcotest.(check bool) "unused global demoted to private" false
    (Analysis.Pipeline.is_shared a (Ir.Var_id.global "global"))

let test_include_possible_option () =
  (* a local that a shared pointer only *possibly* points at: the paper's
     Algorithm 2 leaves it private *)
  let strict =
    analyze
      {|int *p;
        void *tf(void *a) { *p = 3; }
        int main(int c) {
          int t1 = 1;
          int t2 = 2;
          pthread_t t;
          if (c) { p = &t1; } else { p = &t2; }
          pthread_create(&t, NULL, tf, NULL);
          pthread_join(t, NULL);
          return 0;
        }|}
  in
  let t1 = Ir.Var_id.local ~func:"main" "t1" in
  Alcotest.(check bool) "paper mode: t1 stays private" false
    (Analysis.Pipeline.is_shared strict t1)

let test_points_to_through_return () =
  (* a pointer-returning function: callers inherit its targets *)
  let a =
    analyze
      {|int g;
        int *locate(void) { return &g; }
        int main() {
          int *p = locate();
          *p = 5;
          return g;
        }|}
  in
  let targets =
    Analysis.Points_to.definite_var_targets a.Analysis.Pipeline.points_to
      (Ir.Var_id.local ~func:"main" "p")
  in
  Alcotest.(check (list string)) "p points to g through the call" [ "g" ]
    (List.map Ir.Var_id.to_string targets)

let test_points_to_chain () =
  (* shared pointer-to-pointer over two LOCALS: sharing must flow two
     hops through Algorithm 2's iteration *)
  let a =
    analyze
      {|int **pp;
        void *tf(void *a) { **pp = 1; }
        int main() {
          int x = 0;
          int *p = &x;
          pp = &p;
          pthread_t t;
          pthread_create(&t, NULL, tf, NULL);
          pthread_join(t, NULL);
          return x;
        }|}
  in
  Alcotest.(check bool) "local p shared via pp" true
    (Analysis.Pipeline.is_shared a (Ir.Var_id.local ~func:"main" "p"));
  Alcotest.(check bool) "local x shared via p" true
    (Analysis.Pipeline.is_shared a (Ir.Var_id.local ~func:"main" "x"))

let test_reassignment_degrades_definiteness () =
  (* even in straight-line code, a pointer that held two different
     targets over its lifetime keeps only Possible relations in the
     whole-program map — so the paper's definite-only Algorithm 2 will
     not promote either target *)
  let a =
    analyze
      {|int x; int y; int *p;
        int main() {
          p = &x;
          *p = 1;
          p = &y;
          *p = 2;
          return 0;
        }|}
  in
  let rels =
    Analysis.Points_to.targets_of a.Analysis.Pipeline.points_to
      (Ir.Var_id.global "p")
  in
  List.iter
    (fun (tgt, d) ->
      match tgt with
      | Analysis.Points_to.Tvar _ ->
          Alcotest.(check bool)
            (Analysis.Points_to.target_to_string tgt ^ " is possible") true
            (d = Analysis.Points_to.Possible)
      | Analysis.Points_to.Tnull | Analysis.Points_to.Tunknown -> ())
    rels;
  Alcotest.(check int) "both targets recorded" 2
    (List.length
       (List.filter
          (fun (tgt, _) ->
            match tgt with
            | Analysis.Points_to.Tvar _ -> true
            | _ -> false)
          rels))

(* --- the sharing lattice ---------------------------------------------------- *)

let test_sharing_lattice () =
  let r = Analysis.Sharing.create () in
  Alcotest.(check bool) "starts unknown" true
    (Analysis.Sharing.status r = Analysis.Sharing.Unknown);
  Analysis.Sharing.refine r Analysis.Sharing.Shared;
  Alcotest.(check bool) "set to shared" true
    (Analysis.Sharing.status r = Analysis.Sharing.Shared);
  (* one flip allowed *)
  Analysis.Sharing.refine r Analysis.Sharing.Private;
  Alcotest.(check bool) "flipped to private" true
    (Analysis.Sharing.status r = Analysis.Sharing.Private);
  (* same-value refinement is fine *)
  Analysis.Sharing.refine r Analysis.Sharing.Private;
  (* second flip must be rejected *)
  match Analysis.Sharing.refine r Analysis.Sharing.Shared with
  | () -> Alcotest.fail "second flip should be rejected"
  | exception Analysis.Sharing.Refinement_rejected _ -> ()

let qcheck_lattice_never_reverts =
  (* random refinement sequences never produce two observable flips *)
  let gen =
    QCheck.Gen.(
      list_size (int_bound 12)
        (oneofl
           [ Analysis.Sharing.Unknown; Analysis.Sharing.Shared;
             Analysis.Sharing.Private ]))
  in
  QCheck.Test.make ~count:300
    ~name:"sharing lattice: at most one flip under any sequence"
    (QCheck.make gen)
    (fun seq ->
      let r = Analysis.Sharing.create () in
      let flips = ref 0 in
      let prev = ref Analysis.Sharing.Unknown in
      List.iter
        (fun s ->
          (try Analysis.Sharing.refine r s
           with Analysis.Sharing.Refinement_rejected _ -> ());
          let cur = Analysis.Sharing.status r in
          (match !prev, cur with
          | Analysis.Sharing.Shared, Analysis.Sharing.Private
          | Analysis.Sharing.Private, Analysis.Sharing.Shared ->
              incr flips
          | _, _ -> ());
          prev := cur)
        seq;
      !flips <= 1)

(* --- access-count estimation ------------------------------------------------ *)

let test_access_count_loop_multiplier () =
  let a =
    analyze
      {|int arr[100];
        int main() {
          int i;
          for (i = 0; i < 100; i++) { arr[i] = i; }
          return 0;
        }|}
  in
  let writes =
    Analysis.Access_count.writes a.Analysis.Pipeline.access
      (Ir.Var_id.global "arr")
  in
  Alcotest.(check int) "one write x100 trips" 100 writes

let test_access_count_unknown_loop_default () =
  (* a while loop with an unknown bound gets the documented default
     multiplier *)
  let a =
    analyze
      {|int arr[100];
        int main(int n) {
          int i = 0;
          while (i < n) { arr[i] = i; i++; }
          return 0;
        }|}
  in
  let writes =
    Analysis.Access_count.writes a.Analysis.Pipeline.access
      (Ir.Var_id.global "arr")
  in
  Alcotest.(check int) "default trip estimate"
    Analysis.Access_count.default_trip writes

let test_access_count_thread_multiplier () =
  let a = example_analysis () in
  (* sum written twice per thread body, three threads *)
  let writes =
    Analysis.Access_count.writes a.Analysis.Pipeline.access
      (Ir.Var_id.global "sum")
  in
  Alcotest.(check int) "2 writes x 3 threads" 6 writes

let suite =
  [
    Alcotest.test_case "Table 4.2 matches the paper" `Quick
      test_table_4_2_matches_paper;
    Alcotest.test_case "Table 4.1 structure" `Quick test_table_4_1_structure;
    Alcotest.test_case "occurrence counts" `Quick test_counts_on_example;
    Alcotest.test_case "use/def attribution" `Quick test_use_def_attribution;
    Alcotest.test_case "thread sites" `Quick test_thread_sites;
    Alcotest.test_case "Algorithm 1" `Quick test_algorithm_1;
    Alcotest.test_case "single-thread classification" `Quick
      test_single_thread_classification;
    Alcotest.test_case "static thread count" `Quick test_static_thread_count;
    Alcotest.test_case "points-to on the example" `Quick
      test_points_to_example;
    Alcotest.test_case "possible after if-else" `Quick
      test_points_to_possible_after_branch;
    Alcotest.test_case "interprocedural points-to" `Quick
      test_points_to_interprocedural;
    Alcotest.test_case "sharing via pointer" `Quick
      test_sharing_propagates_through_pointer;
    Alcotest.test_case "points-to through return" `Quick
      test_points_to_through_return;
    Alcotest.test_case "points-to chain" `Quick test_points_to_chain;
    Alcotest.test_case "reassignment degrades" `Quick
      test_reassignment_degrades_definiteness;
    Alcotest.test_case "unused global demoted" `Quick
      test_unused_global_demoted;
    Alcotest.test_case "include_possible option" `Quick
      test_include_possible_option;
    Alcotest.test_case "sharing lattice" `Quick test_sharing_lattice;
    QCheck_alcotest.to_alcotest qcheck_lattice_never_reverts;
    Alcotest.test_case "loop multiplier" `Quick
      test_access_count_loop_multiplier;
    Alcotest.test_case "unknown loop default" `Quick
      test_access_count_unknown_loop_default;
    Alcotest.test_case "thread multiplier" `Quick
      test_access_count_thread_multiplier;
  ]
