open Cfront

(* AST traversals and rewriters. *)

let expr src = Parser.expression src

let test_iter_counts_nodes () =
  let count = ref 0 in
  Visit.iter_expr (fun _ -> incr count) (expr "a + b * f(c, d)");
  (* +, a, *, b, call, c, d *)
  Alcotest.(check int) "seven nodes" 7 !count

let test_fold_collects_vars () =
  let vars =
    Visit.fold_expr
      (fun acc e ->
        match e with Ast.Var v -> v :: acc | _ -> acc)
      []
      (expr "x + y[z] * x")
  in
  Alcotest.(check (list string)) "vars in reverse visit order"
    [ "x"; "z"; "y"; "x" ] vars

let test_map_expr_bottom_up () =
  let renamed =
    Visit.map_expr
      (fun e ->
        match e with Ast.Var "a" -> Ast.Var "b" | e -> e)
      (expr "a + a * a")
  in
  Alcotest.(check string) "all renamed" "b + b * b" (Pretty.expr renamed)

let test_rewrite_removal_and_insertion () =
  let p =
    Parser.program
      "void f(void) { keep1(); drop(); keep2(); }"
  in
  let rewritten =
    Visit.rewrite_program
      (fun s ->
        match s.Ast.s_desc with
        | Ast.Sexpr (Ast.Call ("drop", _)) -> Some []
        | Ast.Sexpr (Ast.Call ("keep2", _)) ->
            Some
              [ s; Ast.stmt (Ast.Sexpr (Ast.call "added" [])) ]
        | _ -> None)
      p
  in
  let text = Pretty.program rewritten in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec scan i = i + n <= m && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "drop removed" false (contains "drop()");
  Alcotest.(check bool) "added inserted" true (contains "added()")

let test_rewrite_wraps_loop_bodies () =
  let p = Parser.program "int c;\nvoid f(void) { while (c) one(); }" in
  let rewritten =
    Visit.rewrite_program
      (fun s ->
        match s.Ast.s_desc with
        | Ast.Sexpr (Ast.Call ("one", _)) ->
            Some
              [ Ast.stmt (Ast.Sexpr (Ast.call "a" []));
                Ast.stmt (Ast.Sexpr (Ast.call "b" [])) ]
        | _ -> None)
      p
  in
  (* must still parse: the two statements need a block inside the loop *)
  match Parser.program (Pretty.program rewritten) with
  | _ -> ()
  | exception Srcloc.Error (loc, msg) ->
      Alcotest.failf "rewritten program invalid: %s: %s"
        (Srcloc.to_string loc) msg

let test_topdown_stops_at_replacement () =
  let p =
    Parser.program
      "int i;\nvoid f(void) { for (i = 0; i < 3; i++) { inner(); } }"
  in
  let loop_seen = ref 0 and inner_seen = ref 0 in
  ignore
    (Visit.rewrite_program_topdown
       (fun s ->
         match s.Ast.s_desc with
         | Ast.Sfor _ ->
             incr loop_seen;
             Some [ Ast.stmt (Ast.Sexpr (Ast.call "replaced" [])) ]
         | Ast.Sexpr (Ast.Call ("inner", _)) ->
             incr inner_seen;
             None
         | _ -> None)
       p);
  Alcotest.(check int) "loop replaced" 1 !loop_seen;
  Alcotest.(check int) "children not revisited" 0 !inner_seen

let test_calls_in_func () =
  let p =
    Parser.program
      "int c;\nint x;\nvoid f(void) { g(1); if (c) { h(2); } while (x) g(3); }"
  in
  match Ast.functions p with
  | [ fn ] ->
      let names = List.map (fun (n, _, _) -> n) (Visit.calls_in_func fn) in
      Alcotest.(check (list string)) "calls in order" [ "g"; "h"; "g" ] names
  | _ -> Alcotest.fail "one function expected"

let test_map_program_exprs_reaches_initializers () =
  let p = Parser.program "int old;\nint a = old;\nvoid f(void) { int b = old; }" in
  let rewritten =
    Visit.map_program_exprs
      (fun e -> match e with Ast.Var "old" -> Ast.Var "new_" | e -> e)
      p
  in
  let text = Pretty.program rewritten in
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length text then acc
      else if String.sub text i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "both initializers rewritten" 2 (count "new_")

let suite =
  [
    Alcotest.test_case "iter counts" `Quick test_iter_counts_nodes;
    Alcotest.test_case "fold collects" `Quick test_fold_collects_vars;
    Alcotest.test_case "map bottom-up" `Quick test_map_expr_bottom_up;
    Alcotest.test_case "rewrite remove/insert" `Quick
      test_rewrite_removal_and_insertion;
    Alcotest.test_case "rewrite wraps bodies" `Quick
      test_rewrite_wraps_loop_bodies;
    Alcotest.test_case "topdown stops" `Quick
      test_topdown_stops_at_replacement;
    Alcotest.test_case "calls in func" `Quick test_calls_in_func;
    Alcotest.test_case "initializers rewritten" `Quick
      test_map_program_exprs_reaches_initializers;
  ]
