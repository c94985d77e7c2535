open Cfront

(* The compilation session: exactly-once fact computation across
   check + translate, generation invalidation, translation determinism
   over the example corpus, the structural IR checker, and the --timings
   instrumentation goldens. *)

let parse src = Parser.program ~file:"test.c" src

let contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec scan i =
    i + n <= m && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let example_session () = Session.create ~file:"example41.c" (parse Exp.Example41.source)

(* --- exactly-once across check + translate -------------------------------- *)

(* The [hsmcc check]-then-translate flow on one session: the race check
   demands the full Stage 1-3 pipeline, and the subsequent translation
   must reuse every one of those facts rather than recompute. *)
let test_check_then_translate_analyzes_once () =
  let session = example_session () in
  let diags_first = Session.race_diags session in
  let _translated, report = Translate.Driver.translate_session session in
  List.iter
    (fun provider ->
      Alcotest.(check int)
        (provider ^ " computed exactly once")
        1
        (Session.invocations session provider))
    [ "scope"; "threads"; "points-to"; "access-counts"; "pipeline";
      "races"; "race-diags"; "partition" ];
  (* and the report's diagnostics are the very list the check produced *)
  Alcotest.(check bool) "same diagnostics" true
    (diags_first == report.Translate.Driver.diagnostics)

(* The symbol table and the CFGs are facts like any other: a naive
   translation demands them of the source program only, because no pass
   demands a fact of the generations the passes publish. *)
let test_symtab_once_per_translation () =
  let session = example_session () in
  let _ = Translate.Driver.translate_session session in
  Alcotest.(check int) "symtab runs once" 1
    (Session.invocations session "symtab");
  Alcotest.(check int) "cfgs run once" 1 (Session.invocations session "cfgs")

let test_set_program_invalidates () =
  let session = example_session () in
  let _ = Session.symtab session in
  let _ = Session.symtab session in
  Alcotest.(check int) "memoized within a generation" 1
    (Session.invocations session "symtab");
  Alcotest.(check int) "generation starts at 0" 0
    (Session.generation session);
  Session.set_program session (Session.program session);
  let _ = Session.symtab session in
  Alcotest.(check int) "generation bumped" 1 (Session.generation session);
  Alcotest.(check int) "recomputed after invalidation" 2
    (Session.invocations session "symtab")

let test_facts_computed_counts_only_facts () =
  let session = example_session () in
  let _ = Translate.Driver.translate_session session in
  let fact_invocations =
    List.fold_left
      (fun acc (t : Session.timing) ->
        match t.Session.t_kind with
        | `Fact -> acc + t.Session.t_invocations
        | `Pass -> acc)
      0 (Session.timings session)
  in
  Alcotest.(check int) "facts_computed is the fact total" fact_invocations
    (Session.facts_computed session);
  Alcotest.(check bool) "passes were timed too" true
    (List.exists
       (fun (t : Session.timing) -> t.Session.t_kind = `Pass)
       (Session.timings session))

(* Under -O the optimizer passes demand [opt-plan] of the two generations
   they rewrite, and its access estimates read the symbol table and the
   thread sites alone: Stages 1-3 run once, on the source program. *)
let test_optimized_translation_analyzes_once () =
  let options =
    { Session.default_options with Session.ncores = 8; optimize = true }
  in
  let session =
    Session.create ~file:"example41.c" ~options (parse Exp.Example41.source)
  in
  let _ = Translate.Driver.translate_session session in
  List.iter
    (fun (provider, n) ->
      Alcotest.(check int) (provider ^ " invocations") n
        (Session.invocations session provider))
    [ ("scope", 1); ("threads", 1); ("points-to", 1); ("symtab", 3);
      ("access-counts", 3); ("opt-plan", 2) ];
  Alcotest.(check (list string)) "access-counts demands symtab alone"
    [ "symtab" ]
    (List.find
       (fun (t : Session.timing) -> t.Session.t_name = "access-counts")
       (Session.timings session))
      .Session.t_deps

(* --- determinism over the example corpus ----------------------------------- *)

(* cwd is test/ under [dune runtest] but the project root under
   [dune exec test/test_main.exe] *)
let corpus_dir =
  if Sys.file_exists "../examples/c" then "../examples/c"
  else "examples/c"

let corpus () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat corpus_dir f)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every quoted token immediately followed by ':' — the JSON object keys. *)
let json_keys s =
  let keys = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '"' then begin
      let j = String.index_from s (!i + 1) '"' in
      if j + 1 < n && s.[j + 1] = ':' then
        keys := String.sub s (!i + 1) (j - !i - 1) :: !keys;
      i := j + 1
    end
    else incr i
  done;
  List.sort compare !keys

let translate_once path =
  let session =
    Session.create ~file:path (Parser.program ~file:path (read_file path))
  in
  let translated, _report = Translate.Driver.translate_session session in
  (Pretty.program translated, session)

let test_translation_deterministic () =
  let files = corpus () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun path ->
      let out1, s1 = translate_once path in
      let out2, s2 = translate_once path in
      Alcotest.(check string)
        (Filename.basename path ^ ": byte-identical output")
        out1 out2;
      Alcotest.(check (list string))
        (Filename.basename path ^ ": identical timings JSON key sets")
        (json_keys (Session.render_timings_json s1))
        (json_keys (Session.render_timings_json s2));
      (* the whole instrumentation shape is deterministic, wall time aside *)
      let shape s =
        List.map
          (fun (t : Session.timing) ->
            (t.Session.t_name, t.Session.t_invocations, t.Session.t_deps))
          (Session.timings s)
      in
      Alcotest.(check bool)
        (Filename.basename path ^ ": identical provider rows")
        true
        (shape s1 = shape s2))
    files

(* --- structural IR checker -------------------------------------------------- *)

let loc = Srcloc.dummy

let inject_into_main ~name stmt =
  {
    Translate.Pass.name;
    forbids_after = [];
    must_follow = [];
    transform =
      (fun _env (program : Ast.program) ->
        let globals =
          List.map
            (fun g ->
              match g with
              | Ast.Gfunc fn when String.equal fn.Ast.f_name "main" ->
                  Ast.Gfunc
                    { fn with Ast.f_body = fn.Ast.f_body @ [ stmt ] }
              | Ast.Gfunc _ | Ast.Gvar _ | Ast.Gproto _ -> g)
            program.Ast.p_globals
        in
        { program with Ast.p_globals = globals });
  }

let run_passes passes src =
  let session = Session.create (parse src) in
  let ctx = Translate.Pass.ctx_of_session session in
  Translate.Pass.run_all passes ctx (Session.program session)

(* A transform that emits a reference to an undeclared identifier is
   rejected by name, matching the old [Pass.Inconsistent] contract. *)
let test_undeclared_identifier_rejected () =
  let bogus =
    inject_into_main ~name:"inject-bogus"
      { Ast.s_desc = Ast.Sexpr (Ast.var "never_declared"); s_loc = loc }
  in
  match run_passes [ bogus ] "int main() { return 0; }" with
  | _ -> Alcotest.fail "expected Pass.Inconsistent"
  | exception Translate.Pass.Inconsistent (pass, diag) ->
      Alcotest.(check string) "blames the offending pass" "inject-bogus" pass;
      Alcotest.(check bool) "names the identifier" true
        (contains ~needle:"never_declared" diag)

(* After remove-pthread, any surviving pthread node is an orphan: the
   accumulated forbids_after makes the checker reject later generations
   that still carry one. *)
let test_orphaned_pthread_rejected () =
  let orphan =
    inject_into_main ~name:"inject-pthread"
      {
        Ast.s_desc = Ast.Sexpr (Ast.call "pthread_exit" [ Ast.int 0 ]);
        s_loc = loc;
      }
  in
  match
    run_passes
      [ Translate.Remove_pthread.pass; orphan ]
      "int main() { return 0; }"
  with
  | _ -> Alcotest.fail "expected Pass.Inconsistent"
  | exception Translate.Pass.Inconsistent (pass, diag) ->
      Alcotest.(check string) "blames the injecting pass" "inject-pthread"
        pass;
      Alcotest.(check bool) "names the orphan" true
        (contains ~needle:"pthread_exit" diag)

let test_wellformed_accepts_translated_output () =
  let translated, _ =
    Translate.Driver.translate_program (parse Exp.Example41.source)
  in
  match Wellformed.check translated with
  | Ok () -> ()
  | Error e -> Alcotest.failf "translated output ill-formed: %s" e

(* [Parser.program] rejects these itself; [Wellformed] checks what a
   pass or a generator builds without parsing *)
let unscoped src = Parser.parse_program (Parser.create ~file:"test.c" src)

let test_wellformed_rejects_out_of_scope_local () =
  let program = unscoped "int main() { { int x; x = 1; } return x; }" in
  match Wellformed.check program with
  | Ok () -> Alcotest.fail "out-of-scope use accepted"
  | Error e ->
      Alcotest.(check bool) "names the variable" true
        (contains ~needle:"'x'" e)

let test_wellformed_scopes_for_decl () =
  let program =
    unscoped "int main() { for (int i = 0; i < 3; i++) { } return i; }"
  in
  match Wellformed.check program with
  | Ok () -> Alcotest.fail "for-scoped variable leaked"
  | Error e ->
      Alcotest.(check bool) "names the variable" true
        (contains ~needle:"'i'" e)

(* One binding per name per function is what every analysis assumes, so a
   transform that declares a local over a global's name is rejected by
   name. *)
let test_wellformed_rejects_names_not_apart () =
  let shadow =
    inject_into_main ~name:"inject-shadow"
      { Ast.s_desc =
          Ast.Sdecl [ Ast.decl ~init:(Ast.Init_expr (Ast.int 1)) "x" Ctype.Int ];
        s_loc = loc }
  in
  match run_passes [ shadow ] "int x;\nint main() { return x; }" with
  | _ -> Alcotest.fail "expected Pass.Inconsistent"
  | exception Translate.Pass.Inconsistent (pass, diag) ->
      Alcotest.(check string) "blames the offending pass" "inject-shadow" pass;
      Alcotest.(check bool) "names the local" true
        (contains ~needle:"x@main is not named apart" diag)

(* A transform that declares a second file-scope variable is rejected by
   name: no symbol table is rebuilt after a pass, so [Wellformed] is what
   catches it. *)
let test_duplicate_global_rejected () =
  let duplicate =
    {
      Translate.Pass.name = "inject-global";
      forbids_after = [];
      must_follow = [];
      transform =
        (fun _env (program : Ast.program) ->
          { program with
            Ast.p_globals =
              program.Ast.p_globals @ [ Ast.Gvar (Ast.decl "g" Ctype.Int) ] });
    }
  in
  match run_passes [ duplicate ] "int g;\nint main() { return g; }" with
  | _ -> Alcotest.fail "expected Pass.Inconsistent"
  | exception Translate.Pass.Inconsistent (pass, diag) ->
      Alcotest.(check string) "blames the offending pass" "inject-global" pass;
      Alcotest.(check bool) "names the global" true
        (contains ~needle:"duplicate declaration of g" diag)

(* --- timings goldens -------------------------------------------------------- *)

let test_timings_table_golden () =
  let session = example_session () in
  let _ = Translate.Driver.translate_session session in
  let rendered = Session.render_timings session in
  let lines = String.split_on_char '\n' rendered in
  (match lines with
  | header :: _ ->
      Alcotest.(check (list string))
        "header columns"
        [ "provider"; "kind"; "calls"; "wall-ms"; "depends-on" ]
        (String.split_on_char ' ' header
        |> List.filter (fun s -> s <> ""))
  | [] -> Alcotest.fail "empty rendering");
  List.iter
    (fun provider ->
      Alcotest.(check bool)
        (provider ^ " has a row")
        true
        (List.exists
           (fun l ->
             match String.split_on_char ' ' l with
             | first :: _ -> first = provider
             | [] -> false)
           lines))
    [ "symtab"; "scope"; "threads"; "points-to"; "access-counts";
      "pipeline"; "partition"; "locksets"; "races"; "race-diags";
      "structural-check" ];
  (* providers appear in first-invocation order: scope before threads
     before points-to *)
  let row_index provider =
    let rec go i = function
      | [] -> Alcotest.failf "no row for %s" provider
      | l :: rest ->
          (match String.split_on_char ' ' l with
          | first :: _ when first = provider -> i
          | _ -> go (i + 1) rest)
    in
    go 0 lines
  in
  Alcotest.(check bool) "scope before threads" true
    (row_index "scope" < row_index "threads");
  Alcotest.(check bool) "threads before points-to" true
    (row_index "threads" < row_index "points-to")

let test_timings_json_golden () =
  let session = example_session () in
  let _ = Translate.Driver.translate_session session in
  let json = Session.render_timings_json session in
  let keys = json_keys json in
  let expected = [ "deps"; "invocations"; "kind"; "name"; "wall_ms" ] in
  let uniq = List.sort_uniq compare keys in
  Alcotest.(check (list string)) "every object has exactly these keys"
    expected uniq;
  let count k = List.length (List.filter (String.equal k) keys) in
  Alcotest.(check bool) "keys appear once per object" true
    (List.for_all (fun k -> count k = count "name") expected)

let test_timings_format_parsing () =
  Alcotest.(check bool) "table" true
    (Session.timings_format_of_string "table" = Some `Table);
  Alcotest.(check bool) "text alias" true
    (Session.timings_format_of_string "text" = Some `Table);
  Alcotest.(check bool) "json" true
    (Session.timings_format_of_string "json" = Some `Json);
  Alcotest.(check bool) "garbage" true
    (Session.timings_format_of_string "xml" = None)

let suite =
  [
    Alcotest.test_case "check then translate analyzes once" `Quick
      test_check_then_translate_analyzes_once;
    Alcotest.test_case "symtab computed once per translation" `Quick
      test_symtab_once_per_translation;
    Alcotest.test_case "set_program invalidates facts" `Quick
      test_set_program_invalidates;
    Alcotest.test_case "facts_computed counts only facts" `Quick
      test_facts_computed_counts_only_facts;
    Alcotest.test_case "translation is deterministic over examples/c" `Quick
      test_translation_deterministic;
    Alcotest.test_case "undeclared identifier rejected mid-pipeline" `Quick
      test_undeclared_identifier_rejected;
    Alcotest.test_case "orphaned pthread node rejected" `Quick
      test_orphaned_pthread_rejected;
    Alcotest.test_case "well-formedness accepts translated output" `Quick
      test_wellformed_accepts_translated_output;
    Alcotest.test_case "well-formedness rejects out-of-scope local" `Quick
      test_wellformed_rejects_out_of_scope_local;
    Alcotest.test_case "well-formedness scopes for-declarations" `Quick
      test_wellformed_scopes_for_decl;
    Alcotest.test_case "timings table golden" `Quick
      test_timings_table_golden;
    Alcotest.test_case "timings json golden" `Quick
      test_timings_json_golden;
    Alcotest.test_case "timings format parsing" `Quick
      test_timings_format_parsing;
    Alcotest.test_case "well-formedness rejects names not kept apart" `Quick
      test_wellformed_rejects_names_not_apart;
    Alcotest.test_case "duplicate global from a pass rejected" `Quick
      test_duplicate_global_rejected;
    Alcotest.test_case "-O translation analyzes the source once" `Quick
      test_optimized_translation_analyzes_once;
  ]
